type version = {
  value : Op.value;
  writer : Txn.id;
  commit_ts : int;
  visible : int array;
}

let num_replicas = 2

(* Chains newest-first; scans are short because contention concentrates on
   the head. *)
type t = { chains : version list array }

let initial_version =
  { value = 0; writer = 0; commit_ts = min_int; visible = [| min_int; min_int |] }

let create ~num_keys = { chains = Array.make num_keys [ initial_version ] }

let install t ~key ~value ~writer ~commit_ts ~lag =
  let visible = [| commit_ts; commit_ts |] in
  (match lag with
  | Some (replica, until) -> visible.(replica) <- until
  | None -> ());
  t.chains.(key) <- { value; writer; commit_ts; visible } :: t.chains.(key)

let visible_at t ~key ~replica ~ts =
  let rec find = function
    | [] -> initial_version
    | v :: rest ->
        if v.commit_ts <= ts && v.visible.(replica) <= ts then v else find rest
  in
  find t.chains.(key)

let predecessor t ~key v =
  let rec find = function
    | a :: (next :: _ as rest) ->
        if a.commit_ts = v.commit_ts && a.writer = v.writer then Some next
        else find rest
    | [ _ ] | [] -> None
  in
  find t.chains.(key)

let newer_than t ~key ~ts =
  match t.chains.(key) with [] -> false | v :: _ -> v.commit_ts > ts

let newest_writer_after t ~key ~ts =
  let rec collect acc = function
    | v :: rest when v.commit_ts > ts -> collect (v.writer :: acc) rest
    | _ -> acc
  in
  collect [] t.chains.(key)
