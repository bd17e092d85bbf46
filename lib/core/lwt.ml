type op =
  | Insert of { key : Op.key; value : Op.value }
  | Rw of { key : Op.key; expected : Op.value; new_value : Op.value }
  | Read of { key : Op.key; value : Op.value }

type event = { id : int; session : int; op : op; start : int; finish : int }

type t = { events : event array; num_keys : int; num_sessions : int }

let make ~num_keys ~num_sessions events =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun e ->
      if Hashtbl.mem seen e.id then
        invalid_arg (Printf.sprintf "Lwt.make: duplicate event id %d" e.id);
      Hashtbl.replace seen e.id ();
      if e.finish < e.start then
        invalid_arg (Printf.sprintf "Lwt.make: event %d finishes before it starts" e.id))
    events;
  { events = Array.of_list events; num_keys; num_sessions }

let key_of_event e =
  match e.op with
  | Insert { key; _ } | Rw { key; _ } | Read { key; _ } -> key

let restrict t k =
  Array.of_list
    (List.filter (fun e -> key_of_event e = k) (Array.to_list t.events))
