type 'lab t = {
  offsets : int array;
  targets : int array;
  labels : 'lab array;
}

let n t = Array.length t.offsets - 1
let num_edges t = Array.length t.targets
let out_degree t u = t.offsets.(u + 1) - t.offsets.(u)

let make ~offsets ~targets ~labels =
  let n = Array.length offsets - 1 in
  if n < 0 then invalid_arg "Csr.make: offsets must have length >= 1";
  let m = Array.length targets in
  if Array.length labels <> m then
    invalid_arg "Csr.make: targets and labels disagree on the edge count";
  if offsets.(0) <> 0 || offsets.(n) <> m then
    invalid_arg "Csr.make: offsets must run from 0 to the edge count";
  for u = 0 to n - 1 do
    if offsets.(u) > offsets.(u + 1) then
      invalid_arg "Csr.make: offsets must be non-decreasing"
  done;
  { offsets; targets; labels }

(* Multi-stream merge: the row order of the result is (stream 0 edges of
   u, stream 1 edges of u, ...) for every source u — a function of the
   stream decomposition only, never of how many domains executed the
   passes, which is what makes parallel inference bit-identical to
   sequential. *)
let of_edge_streams ?pool ~n ~streams ~decode () =
  let s = Array.length streams in
  (* Pass 1: per-stream per-source counts (parallel over streams). *)
  let counts = Array.make s [||] in
  Pool.tasks pool
    (List.init s (fun si () ->
         let src, _, _, len = streams.(si) in
         if len > 0 then begin
           let c = Array.make n 0 in
           for e = 0 to len - 1 do
             c.(src.(e)) <- c.(src.(e)) + 1
           done;
           counts.(si) <- c
         end));
  (* Offsets prefix sum is O(n) and stays serial; turning the counts
     into per-(stream, source) start cursors is O(s * n) and runs on
     vertex slices.  Both leave [counts.(si).(u)] = first write index
     for stream [si]'s edges out of [u]. *)
  let offsets = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    let d = ref 0 in
    for si = 0 to s - 1 do
      let c = counts.(si) in
      if Array.length c > 0 then d := !d + Array.unsafe_get c u
    done;
    offsets.(u + 1) <- offsets.(u) + !d
  done;
  let m = offsets.(n) in
  ignore
    (Pool.map_slices pool ~n (fun lo hi ->
         for u = lo to hi - 1 do
           let cursor = ref offsets.(u) in
           for si = 0 to s - 1 do
             let c = counts.(si) in
             if Array.length c > 0 then begin
               let cnt = Array.unsafe_get c u in
               Array.unsafe_set c u !cursor;
               cursor := !cursor + cnt
             end
           done
         done));
  let targets = Array.make m (-1) in
  let labels =
    if m = 0 then [||]
    else begin
      let seed = ref None in
      (try
         Array.iteri
           (fun si (_, _, lab, len) ->
             if len > 0 then begin
               seed := Some (decode si lab.(0));
               raise Exit
             end)
           streams
       with Exit -> ());
      Array.make m (Option.get !seed)
    end
  in
  (* Pass 2: each stream fills its own disjoint index ranges (cursors
     live in that stream's private count array), so the writes race on
     nothing.  [decode] is called with the stream index so label caches
     can be kept per-stream (hence per-domain). *)
  Pool.tasks pool
    (List.init s (fun si () ->
         let src, dst, lab, len = streams.(si) in
         if len > 0 then begin
           let cur = counts.(si) in
           for e = 0 to len - 1 do
             let u = src.(e) in
             let i = cur.(u) in
             targets.(i) <- dst.(e);
             labels.(i) <- decode si lab.(e);
             cur.(u) <- i + 1
           done
         end));
  { offsets; targets; labels }

(* A counting sort over the list, so each source's block fills in list
   order.  Not a one-stream [of_edge_streams]: that copies the list into
   four edge-length arrays first, and beyond 256 edges each of those is
   a major-heap allocation. *)
let of_edges ~n edges =
  let offsets = Array.make (n + 1) 0 in
  List.iter (fun (u, _, _) -> offsets.(u + 1) <- offsets.(u + 1) + 1) edges;
  for u = 1 to n do
    offsets.(u) <- offsets.(u) + offsets.(u - 1)
  done;
  let m = offsets.(n) in
  let targets = Array.make m 0 in
  let labels =
    match edges with [] -> [||] | (_, lab, _) :: _ -> Array.make m lab
  in
  let cursor = Array.sub offsets 0 n in
  List.iter
    (fun (u, lab, v) ->
      let i = cursor.(u) in
      targets.(i) <- v;
      labels.(i) <- lab;
      cursor.(u) <- i + 1)
    edges;
  { offsets; targets; labels }

let iter_succ t u f =
  for i = t.offsets.(u) to t.offsets.(u + 1) - 1 do
    f t.targets.(i) t.labels.(i)
  done

let succ t u =
  List.init (out_degree t u) (fun j ->
      let i = t.offsets.(u) + j in
      (t.targets.(i), t.labels.(i)))

let mem_edge t u v =
  let found = ref false in
  for i = t.offsets.(u) to t.offsets.(u + 1) - 1 do
    if t.targets.(i) = v then found := true
  done;
  !found
