(* Iterative three-colour DFS over the frozen CSR representation
   (histories can have hundreds of thousands of transactions, so no
   native recursion).  All per-visit state lives in flat int arrays —
   the vertex stack, a per-vertex edge cursor into the CSR block — so
   the traversal allocates nothing per visit; only the O(V) scratch
   arrays up front and the witness on a hit.  When a back edge
   (u -> v with v grey) is found, the grey path is exactly the explicit
   stack, and the edge that discovered each stack entry is the
   predecessor's cursor minus one. *)

let white = '\000'
let grey = '\001'
let black = '\002'

exception Found_at of int (* stack depth of the back edge's source *)

let find_csr (type lab) (c : lab Csr.t) =
  let n = Csr.n c in
  let offsets = c.Csr.offsets and targets = c.Csr.targets in
  let colour = Bytes.make n white in
  let stack = Array.make (Stdlib.max n 1) 0 in
  let cursor = Array.make (Stdlib.max n 1) 0 in
  (* cursor.(v) is the next edge index (into [targets]) to scan at [v];
     only meaningful while [v] is grey. *)
  let closing = ref (-1) in
  let visit root =
    let sp = ref 0 in
    let push v =
      stack.(!sp) <- v;
      incr sp;
      Bytes.set colour v grey;
      cursor.(v) <- offsets.(v)
    in
    push root;
    while !sp > 0 do
      let u = stack.(!sp - 1) in
      let i = cursor.(u) in
      if i >= offsets.(u + 1) then begin
        Bytes.set colour u black;
        decr sp
      end
      else begin
        cursor.(u) <- i + 1;
        let v = targets.(i) in
        match Bytes.get colour v with
        | '\002' (* black *) -> ()
        | '\001' (* grey *) ->
            closing := i;
            raise (Found_at !sp)
        | _ (* white *) -> push v
      end
    done
  in
  let build_cycle depth =
    (* stack.(0 .. depth-1) is the grey path; the closing edge goes from
       stack.(depth-1) back to targets.(!closing).  Find where the cycle
       enters the stack and emit (source, label, target) triples. *)
    let v = targets.(!closing) in
    let entry = ref (depth - 1) in
    while stack.(!entry) <> v do
      decr entry
    done;
    let edges = ref [ (stack.(depth - 1), c.Csr.labels.(!closing), v) ] in
    for k = depth - 2 downto !entry do
      let discovering = cursor.(stack.(k)) - 1 in
      edges :=
        (stack.(k), c.Csr.labels.(discovering), targets.(discovering))
        :: !edges
    done;
    !edges
  in
  try
    for u = 0 to n - 1 do
      if Bytes.get colour u = white then visit u
    done;
    None
  with Found_at depth -> Some (build_cycle depth)
