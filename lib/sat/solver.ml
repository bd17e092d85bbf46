type theory = {
  on_assign : Lit.t -> Lit.t list option;
  on_unassign : Lit.t -> unit;
}

type clause = int array
(* Invariant: positions 0 and 1 are the watched literals. *)

type t = {
  nvars : int;
  theory : theory option;
  (* assignment state *)
  assign : int array;  (* per var: -1 unassigned, 0 false, 1 true *)
  level : int array;
  reason : clause option array;
  phase : bool array;
  mutable trail : int array;  (* literals in assignment order *)
  mutable trail_size : int;
  mutable qhead : int;
  mutable trail_lim : int list;  (* trail sizes at decision points, newest first *)
  (* clause database *)
  watches : clause list array;  (* indexed by literal *)
  mutable unsat : bool;
  mutable pending_units : int list;
  (* branching *)
  activity : float array;
  mutable var_inc : float;
  heap : int array;  (* binary max-heap of vars *)
  heap_pos : int array;  (* var -> heap index, -1 if absent *)
  mutable heap_size : int;
  (* stats *)
  mutable conflicts : int;
  mutable decisions : int;
  mutable solved_sat : bool;
}

(* ------------------------------------------------------------------ *)
(* Variable-order heap (max-heap on activity).                         *)

let heap_swap s i j =
  let a = s.heap.(i) and b = s.heap.(j) in
  s.heap.(i) <- b;
  s.heap.(j) <- a;
  s.heap_pos.(b) <- i;
  s.heap_pos.(a) <- j

let rec heap_up s i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if s.activity.(s.heap.(i)) > s.activity.(s.heap.(parent)) then begin
      heap_swap s i parent;
      heap_up s parent
    end
  end

let rec heap_down s i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < s.heap_size && s.activity.(s.heap.(l)) > s.activity.(s.heap.(!best))
  then best := l;
  if r < s.heap_size && s.activity.(s.heap.(r)) > s.activity.(s.heap.(!best))
  then best := r;
  if !best <> i then begin
    heap_swap s i !best;
    heap_down s !best
  end

let heap_insert s v =
  if s.heap_pos.(v) < 0 then begin
    s.heap.(s.heap_size) <- v;
    s.heap_pos.(v) <- s.heap_size;
    s.heap_size <- s.heap_size + 1;
    heap_up s s.heap_pos.(v)
  end

let heap_pop s =
  let v = s.heap.(0) in
  s.heap_size <- s.heap_size - 1;
  s.heap_pos.(v) <- -1;
  if s.heap_size > 0 then begin
    let last = s.heap.(s.heap_size) in
    s.heap.(0) <- last;
    s.heap_pos.(last) <- 0;
    heap_down s 0
  end;
  v

(* ------------------------------------------------------------------ *)

let create ?theory ~nvars () =
  let s =
    {
      nvars;
      theory;
      assign = Array.make nvars (-1);
      level = Array.make nvars 0;
      reason = Array.make nvars None;
      phase = Array.make nvars true;
      trail = Array.make (Stdlib.max 16 nvars) 0;
      trail_size = 0;
      qhead = 0;
      trail_lim = [];
      watches = Array.make (2 * Stdlib.max 1 nvars) [];
      unsat = false;
      pending_units = [];
      activity = Array.make nvars 0.0;
      var_inc = 1.0;
      heap = Array.make (Stdlib.max 1 nvars) 0;
      heap_pos = Array.make (Stdlib.max 1 nvars) (-1);
      heap_size = 0;
      conflicts = 0;
      decisions = 0;
      solved_sat = false;
    }
  in
  for v = 0 to nvars - 1 do
    heap_insert s v
  done;
  s

let lit_value s l =
  match s.assign.(Lit.var l) with
  | -1 -> -1
  | v -> if Lit.sign l then v else 1 - v

let decision_level s = List.length s.trail_lim

let bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for u = 0 to s.nvars - 1 do
      s.activity.(u) <- s.activity.(u) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  if s.heap_pos.(v) >= 0 then heap_up s s.heap_pos.(v)

let decay s = s.var_inc <- s.var_inc /. 0.95

(* Returns a theory conflict clause (all-false literals), if any. *)
let enqueue s l reason =
  let v = Lit.var l in
  s.assign.(v) <- (if Lit.sign l then 1 else 0);
  s.level.(v) <- decision_level s;
  s.reason.(v) <- reason;
  s.trail.(s.trail_size) <- l;
  s.trail_size <- s.trail_size + 1;
  match s.theory with
  | None -> None
  | Some th -> (
      match th.on_assign l with
      | None -> None
      | Some true_lits -> Some (Array.of_list (List.map Lit.neg true_lits)))

let add_clause s lits =
  let lits = List.sort_uniq compare lits in
  let tautology =
    List.exists (fun l -> List.mem (Lit.neg l) lits) lits
  in
  if not tautology then
    match lits with
    | [] -> s.unsat <- true
    | [ l ] -> s.pending_units <- l :: s.pending_units
    | l0 :: l1 :: _ ->
        let c = Array.of_list lits in
        s.watches.(l0) <- c :: s.watches.(l0);
        s.watches.(l1) <- c :: s.watches.(l1)

let attach_learnt s c =
  if Array.length c >= 2 then begin
    s.watches.(c.(0)) <- c :: s.watches.(c.(0));
    s.watches.(c.(1)) <- c :: s.watches.(c.(1))
  end

(* Boolean constraint propagation.  Returns a conflicting clause. *)
let propagate s =
  let conflict = ref None in
  while !conflict = None && s.qhead < s.trail_size do
    let p = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    let false_lit = Lit.neg p in
    let ws = s.watches.(false_lit) in
    s.watches.(false_lit) <- [];
    let rec go = function
      | [] -> ()
      | c :: rest -> (
          (* Normalize: the falsified watch sits at position 1. *)
          if c.(0) = false_lit then begin
            c.(0) <- c.(1);
            c.(1) <- false_lit
          end;
          if lit_value s c.(0) = 1 then begin
            (* Clause already satisfied: keep watching. *)
            s.watches.(false_lit) <- c :: s.watches.(false_lit);
            go rest
          end
          else
            (* Look for a replacement watch. *)
            let len = Array.length c in
            let rec find i =
              if i >= len then -1
              else if lit_value s c.(i) <> 0 then i
              else find (i + 1)
            in
            let i = find 2 in
            if i >= 0 then begin
              c.(1) <- c.(i);
              c.(i) <- false_lit;
              s.watches.(c.(1)) <- c :: s.watches.(c.(1));
              go rest
            end
            else if lit_value s c.(0) = 0 then begin
              (* All false: conflict.  Restore remaining watches. *)
              s.watches.(false_lit) <- c :: s.watches.(false_lit);
              List.iter
                (fun c' ->
                  s.watches.(false_lit) <- c' :: s.watches.(false_lit))
                rest;
              conflict := Some c
            end
            else begin
              (* Unit: propagate c.(0). *)
              s.watches.(false_lit) <- c :: s.watches.(false_lit);
              (match enqueue s c.(0) (Some c) with
              | None -> go rest
              | Some th_confl ->
                  List.iter
                    (fun c' ->
                      s.watches.(false_lit) <- c' :: s.watches.(false_lit))
                    rest;
                  conflict := Some th_confl)
            end)
    in
    go ws
  done;
  !conflict

(* First-UIP conflict analysis.  Returns (learnt clause, backjump level);
   learnt.(0) is the asserting literal. *)
let analyze s confl =
  let seen = Array.make s.nvars false in
  let learnt = ref [] in
  let counter = ref 0 in
  let idx = ref (s.trail_size - 1) in
  let confl = ref confl in
  let p = ref (-1) in
  let continue = ref true in
  while !continue do
    Array.iter
      (fun q ->
        if q <> !p then begin
          let v = Lit.var q in
          if (not seen.(v)) && s.level.(v) > 0 then begin
            seen.(v) <- true;
            bump s v;
            if s.level.(v) = decision_level s then incr counter
            else learnt := q :: !learnt
          end
        end)
      !confl;
    (* Walk back to the most recently assigned marked literal. *)
    while not seen.(Lit.var s.trail.(!idx)) do
      decr idx
    done;
    let q = s.trail.(!idx) in
    decr idx;
    seen.(Lit.var q) <- false;
    decr counter;
    if !counter = 0 then begin
      p := Lit.neg q;
      continue := false
    end
    else begin
      p := q;
      confl :=
        (match s.reason.(Lit.var q) with
        | Some c -> c
        | None -> assert false (* decisions cannot be interior *))
    end
  done;
  let learnt = Array.of_list (!p :: !learnt) in
  (* Position 1 must hold the highest-level remaining literal. *)
  let bj_level =
    if Array.length learnt = 1 then 0
    else begin
      let best = ref 1 in
      for i = 2 to Array.length learnt - 1 do
        if s.level.(Lit.var learnt.(i)) > s.level.(Lit.var learnt.(!best))
        then best := i
      done;
      let tmp = learnt.(1) in
      learnt.(1) <- learnt.(!best);
      learnt.(!best) <- tmp;
      s.level.(Lit.var learnt.(1))
    end
  in
  (learnt, bj_level)

let backjump s target_level =
  if target_level >= decision_level s then ()
  else begin
  let keep =
    let rec nth_lim lims n =
      match lims with
      | [] -> 0
      | size :: rest -> if n = 0 then size else nth_lim rest (n - 1)
    in
    (* trail_lim is newest-first; the size to cut to for target L is the
       (depth - L)-th element from the newest, i.e. index (depth - L - 1). *)
    nth_lim s.trail_lim (decision_level s - target_level - 1)
  in
  while s.trail_size > keep do
    s.trail_size <- s.trail_size - 1;
    let l = s.trail.(s.trail_size) in
    let v = Lit.var l in
    s.phase.(v) <- Lit.sign l;
    s.assign.(v) <- -1;
    s.reason.(v) <- None;
    (match s.theory with Some th -> th.on_unassign l | None -> ());
    heap_insert s v
  done;
  let rec drop lims n = if n = 0 then lims else drop (List.tl lims) (n - 1) in
  s.trail_lim <- drop s.trail_lim (decision_level s - target_level);
  s.qhead <- s.trail_size
  end

type outcome = Sat | Unsat

exception Found_unsat

let solve s =
  if s.unsat then Unsat
  else
    try
      (* Level-0 units. *)
      List.iter
        (fun l ->
          match lit_value s l with
          | 1 -> ()
          | 0 -> raise Found_unsat
          | _ -> (
              match enqueue s l None with
              | None -> ()
              | Some _ -> raise Found_unsat))
        (List.rev s.pending_units);
      s.pending_units <- [];
      let restart_limit = ref 100 in
      let conflicts_since_restart = ref 0 in
      (* Learn from a conflict, backjump, assert; the asserted literal may
         itself be rejected by the theory, in which case we recurse. *)
      let rec handle_conflict confl =
        s.conflicts <- s.conflicts + 1;
        incr conflicts_since_restart;
        if decision_level s = 0 then raise Found_unsat;
        let learnt, bj = analyze s confl in
        backjump s bj;
        decay s;
        let next =
          if Array.length learnt = 1 then enqueue s learnt.(0) None
          else begin
            attach_learnt s learnt;
            enqueue s learnt.(0) (Some learnt)
          end
        in
        match next with None -> () | Some confl' -> handle_conflict confl'
      in
      let rec loop () =
        match propagate s with
        | Some confl ->
            handle_conflict confl;
            loop ()
        | None ->
            if !conflicts_since_restart > !restart_limit then begin
              conflicts_since_restart := 0;
              restart_limit := !restart_limit * 3 / 2;
              backjump s 0;
              loop ()
            end
            else begin
              let rec pick () =
                if s.heap_size = 0 then None
                else
                  let v = heap_pop s in
                  if s.assign.(v) < 0 then Some v else pick ()
              in
              match pick () with
              | None -> s.solved_sat <- true
              | Some v -> (
                  s.decisions <- s.decisions + 1;
                  s.trail_lim <- s.trail_size :: s.trail_lim;
                  let l = Lit.make v s.phase.(v) in
                  match enqueue s l None with
                  | None -> loop ()
                  | Some th_confl ->
                      handle_conflict th_confl;
                      loop ())
            end
      in
      loop ();
      if s.solved_sat then Sat else Unsat
    with Found_unsat ->
      s.unsat <- true;
      Unsat

let value s v =
  if not s.solved_sat then invalid_arg "Solver.value: no model";
  s.assign.(v) = 1

let num_conflicts s = s.conflicts
let num_decisions s = s.decisions
