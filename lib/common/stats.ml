let mean xs =
  if Array.length xs = 0 then invalid_arg "Stats.mean: empty";
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let sorted xs =
  let c = Array.copy xs in
  Array.sort compare c;
  c

let median xs =
  if Array.length xs = 0 then invalid_arg "Stats.median: empty";
  let s = sorted xs in
  let n = Array.length s in
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

let stddev xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else
    let m = mean xs in
    let ss = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
    sqrt (ss /. float_of_int (n - 1))

let percentile xs p =
  if Array.length xs = 0 then invalid_arg "Stats.percentile: empty";
  let s = sorted xs in
  let n = Array.length s in
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
  s.(Stdlib.max 0 (Stdlib.min (n - 1) (rank - 1)))

let min xs = Array.fold_left Stdlib.min xs.(0) xs
let max xs = Array.fold_left Stdlib.max xs.(0) xs

type summary = {
  n : int;
  mean : float;
  median : float;
  stddev : float;
  min : float;
  max : float;
}

let summarize xs =
  {
    n = Array.length xs;
    mean = mean xs;
    median = median xs;
    stddev = stddev xs;
    min = min xs;
    max = max xs;
  }

let time_it f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let time_repeat ?(warmup = 1) ~repeat f =
  for _ = 1 to warmup do
    ignore (f ())
  done;
  Array.init repeat (fun _ -> snd (time_it f))

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).live_words
