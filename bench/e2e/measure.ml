(* Samples, medians and quartiles, and the correctness tally every run
   keeps next to its numbers. *)

let now () = float_of_int (Obs.Clock.now_ns ()) /. 1e9

let sorted l = List.sort Float.compare l

let median l =
  match sorted l with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* First and third quartile by the "exclusive" method of Python's
   statistics.quantiles(n=4), so spreads read the same here and in any
   script that re-derives them from the samples. *)
let quartiles l =
  let a = Array.of_list (sorted l) in
  let n = Array.length a in
  if n = 0 then (nan, nan)
  else if n = 1 then (a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = Stdlib.min (n - 1) (Stdlib.max 1 (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 3)

(* The [p]-th percentile by nearest rank, for latency samples. *)
let percentile p l =
  match sorted l with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let k = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
      a.(Stdlib.max 0 (Stdlib.min (n - 1) (k - 1)))

type metric = {
  name : string;
  unit : string;
  value : float;  (** the reported number; mostly the median of [samples] *)
  samples : float list;  (** runs, sessions or probes behind [value] *)
}

let of_samples name unit samples = { name; unit; value = median samples; samples }
let single name unit value = { name; unit; value; samples = [ value ] }

(* Every verdict a run checks counts as one attempt; a miss, an error,
   an unexpected session close or a failed probe counts as a failure. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (** newest first *)
}

let tally () = { attempted = 0; failed = 0; failures = [] }

let expect t ok fmt =
  Printf.ksprintf
    (fun msg ->
      t.attempted <- t.attempted + 1;
      if not ok then begin
        t.failed <- t.failed + 1;
        t.failures <- msg :: t.failures;
        prerr_endline ("mtcbench: FAIL: " ^ msg)
      end)
    fmt
