(* Iterative Tarjan over the frozen CSR representation.  [low] doubles as
   the index array; [on_stack] tracks stack membership.  All traversal
   state is flat int arrays (explicit call stack + per-vertex edge
   cursor), so the walk allocates nothing per visit. *)

let component_ids_csr (c : _ Csr.t) =
  let n = Csr.n c in
  let offsets = c.Csr.offsets and targets = c.Csr.targets in
  let index = Array.make n (-1) in
  let low = Array.make n 0 in
  let on_stack = Bytes.make n '\000' in
  let comp = Array.make n (-1) in
  let tstack = Array.make (Stdlib.max n 1) 0 in
  let tsp = ref 0 in
  let call = Array.make (Stdlib.max n 1) 0 in
  let cursor = Array.make (Stdlib.max n 1) 0 in
  let next_index = ref 0 in
  let next_comp = ref 0 in
  let visit root =
    let csp = ref 0 in
    let push v =
      index.(v) <- !next_index;
      low.(v) <- !next_index;
      incr next_index;
      tstack.(!tsp) <- v;
      incr tsp;
      Bytes.set on_stack v '\001';
      call.(!csp) <- v;
      incr csp;
      cursor.(v) <- offsets.(v)
    in
    push root;
    while !csp > 0 do
      let u = call.(!csp - 1) in
      let i = cursor.(u) in
      if i >= offsets.(u + 1) then begin
        decr csp;
        if low.(u) = index.(u) then begin
          let continue = ref true in
          while !continue do
            decr tsp;
            let w = tstack.(!tsp) in
            Bytes.set on_stack w '\000';
            comp.(w) <- !next_comp;
            if w = u then continue := false
          done;
          incr next_comp
        end;
        if !csp > 0 then begin
          let p = call.(!csp - 1) in
          if low.(u) < low.(p) then low.(p) <- low.(u)
        end
      end
      else begin
        cursor.(u) <- i + 1;
        let v = targets.(i) in
        if index.(v) = -1 then push v
        else if Bytes.get on_stack v = '\001' && index.(v) < low.(u) then
          low.(u) <- index.(v)
      end
    done
  in
  for v = 0 to n - 1 do
    if index.(v) = -1 then visit v
  done;
  (comp, !next_comp)
