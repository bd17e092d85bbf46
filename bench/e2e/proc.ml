(* The program under test runs as child processes of the runner: this
   module starts them, reaps them with their resource usage, reads the
   live ones' counters from /proc, and records the host a run ran on. *)

external wait4_raw : int -> bool -> int * int * int * float * float * int
  = "mtcbench_wait4"

external clk_tck : unit -> int = "mtcbench_clk_tck"

type usage = {
  code : int;  (** exit code; -1 when killed by a signal *)
  signal : int;
  user_s : float;
  sys_s : float;
  maxrss_kb : int;  (** peak resident set size *)
}

(* Children started and not yet reaped: killed on exit, so a failing
   run never leaves a server behind. *)
let live = ref []

let read_file path = In_channel.with_open_bin path In_channel.input_all

let spawn ~log prog args =
  let fd =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin fd fd)
  in
  live := pid :: !live;
  pid

let reaped pid (_, code, signal, user_s, sys_s, maxrss_kb) =
  live := List.filter (( <> ) pid) !live;
  { code; signal; user_s; sys_s; maxrss_kb }

let wait pid = reaped pid (wait4_raw pid false)

let try_wait pid =
  let ((r, _, _, _, _, _) as raw) = wait4_raw pid true in
  if r = 0 then None else Some (reaped pid raw)

(* SIGTERM, a grace period for a clean drain, then SIGKILL. *)
let stop ?(grace = 20.0) pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Measure.now () +. grace in
  let rec poll () =
    match try_wait pid with
    | Some u -> u
    | None when Measure.now () > deadline ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        wait pid
    | None ->
        Unix.sleepf 0.005;
        poll ()
  in
  poll ()

(* A spawned program's ru_maxrss starts from this process's peak RSS
   (Linux carries it across exec), so work that would raise that peak
   above a checker's runs in a forked child; [f] must not start domains. *)
let in_child f =
  match Unix.fork () with
  | 0 -> Unix._exit (match f () with () -> 0 | exception _ -> 1)
  | pid ->
      live := pid :: !live;
      (wait pid).code = 0
  | exception Failure _ ->
      (* OCaml cannot fork once a process has started domains; only the
         smoke, which runs every workload in one process and reads no
         memory figure, gets here *)
      f ();
      true

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (wait pid) with Failure _ -> ())
    !live

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

(* Peak resident set size of a live process, in KiB. *)
let vm_hwm_kb pid =
  read_file (Printf.sprintf "/proc/%d/status" pid)
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         if String.starts_with ~prefix:"VmHWM:" line then
           Scanf.sscanf line "VmHWM: %d" Option.some
         else None)
  |> Option.value ~default:0

(* User + system CPU seconds of every thread of a live process. *)
let cpu_s pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  (* the command name may hold spaces; the fields after it do not *)
  let close = String.rindex s ')' in
  let rest = String.sub s (close + 2) (String.length s - close - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (* fields 14 (utime) and 15 (stime) of stat(5), counted from 3 here *)
  float_of_int (int_of_string f.(11) + int_of_string f.(12))
  /. float_of_int (clk_tck ())

let loadavg () =
  try Scanf.sscanf (read_file "/proc/loadavg") "%f" Fun.id
  with Sys_error _ | Scanf.Scan_failure _ | End_of_file -> nan

(* The commit the measured tree was built from, read from the checkout's
   own .git (a plain source tree has none: "none"). *)
let git_rev root =
  let git = Filename.concat root ".git" in
  let read p = String.trim (read_file (Filename.concat git p)) in
  match read "HEAD" with
  | exception Sys_error _ -> "none"
  | head when String.starts_with ~prefix:"ref: " head -> (
      let r = String.sub head 5 (String.length head - 5) in
      try read r
      with Sys_error _ -> (
        try
          read "packed-refs" |> String.split_on_char '\n'
          |> List.find_map (fun l ->
                 match String.split_on_char ' ' l with
                 | [ sha; name ] when name = r -> Some sha
                 | _ -> None)
          |> Option.value ~default:"unknown"
        with Sys_error _ -> "unknown"))
  | sha -> sha

type host = {
  nproc : int;
  ocaml : string;
  rev : string;
  load_before : float;  (** 1-minute load average when the run started *)
}

let host ~root =
  {
    nproc = Domain.recommended_domain_count ();
    ocaml = Sys.ocaml_version;
    rev = git_rev root;
    load_before = loadavg ();
  }

(* A run that starts on a machine already busier than its core count
   measures the neighbours as much as the program. *)
let valid h = not (h.load_before > float_of_int h.nproc)
