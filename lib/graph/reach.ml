let reachable g u v =
  if u = v then true
  else begin
    let n = Csr.n g in
    let seen = Array.make n false in
    let q = Queue.create () in
    seen.(u) <- true;
    Queue.add u q;
    let found = ref false in
    while (not !found) && not (Queue.is_empty q) do
      let w = Queue.pop q in
      Csr.iter_succ g w (fun x _ ->
          if x = v then found := true
          else if not seen.(x) then begin
            seen.(x) <- true;
            Queue.add x q
          end)
    done;
    !found
  end

let bit row v = Char.code (Bytes.get row (v lsr 3)) land (1 lsl (v land 7)) <> 0

let set_bit row v =
  let i = v lsr 3 in
  Bytes.set row i (Char.chr (Char.code (Bytes.get row i) lor (1 lsl (v land 7))))

let or_into dst src =
  let len = Bytes.length dst in
  for i = 0 to len - 1 do
    Bytes.set dst i
      (Char.chr (Char.code (Bytes.get dst i) lor Char.code (Bytes.get src i)))
  done

(* Rows computed in reverse topological order so each row is the union of
   its successors' completed rows.  Vertices inside a cycle share their
   SCC's row (every member reaches every other). *)
let closure_matrix (g : _ Csr.t) =
  let n = Csr.n g in
  let offsets = g.Csr.offsets and targets = g.Csr.targets in
  let row_len = (n + 7) / 8 in
  let comp, k = Scc.component_ids_csr g in
  let comp_row = Array.init k (fun _ -> Bytes.make row_len '\000') in
  (* Tarjan numbers components in reverse topological order, so component 0
     has no successors outside itself: process components in index order. *)
  let members = Array.make k [] in
  for v = n - 1 downto 0 do
    members.(comp.(v)) <- v :: members.(comp.(v))
  done;
  for c = 0 to k - 1 do
    let row = comp_row.(c) in
    List.iter
      (fun v ->
        set_bit row v;
        for i = offsets.(v) to offsets.(v + 1) - 1 do
          let w = targets.(i) in
          set_bit row w;
          if comp.(w) <> c then or_into row comp_row.(comp.(w))
          (* same component: members already set below *)
        done)
      members.(c);
    (* All members of a cyclic component reach each other. *)
    (match members.(c) with
    | _ :: _ :: _ -> List.iter (fun v -> set_bit row v) members.(c)
    | _ -> ())
  done;
  Array.init n (fun v -> comp_row.(comp.(v)))
