(* Kahn over CSR with a flat int-array queue: no allocation beyond the
   two O(V) arrays and the result list. *)
let sort_csr (c : _ Csr.t) =
  let n = Csr.n c in
  let offsets = c.Csr.offsets and targets = c.Csr.targets in
  let indeg = Array.make n 0 in
  for i = 0 to Array.length targets - 1 do
    indeg.(targets.(i)) <- indeg.(targets.(i)) + 1
  done;
  let queue = Array.make (Stdlib.max n 1) 0 in
  let head = ref 0 and tail = ref 0 in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then begin
      queue.(!tail) <- v;
      incr tail
    end
  done;
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    for i = offsets.(u) to offsets.(u + 1) - 1 do
      let v = targets.(i) in
      indeg.(v) <- indeg.(v) - 1;
      if indeg.(v) = 0 then begin
        queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  if !tail = n then Some (Array.to_list (Array.sub queue 0 n)) else None
