type id = int

type status = Committed | Aborted

type t = {
  id : id;
  session : int;
  ops : Op.t array;
  status : status;
  start_ts : int;
  commit_ts : int;
}

let make ~id ~session ?(status = Committed) ?start_ts ?commit_ts ops =
  let start_ts = Option.value start_ts ~default:id in
  let commit_ts = Option.value commit_ts ~default:start_ts in
  { id; session; ops = Array.of_list ops; status; start_ts; commit_ts }

let is_committed t = t.status = Committed

(* --- flat scans over one op array ---

   Mini-transactions have at most four ops, so a linear rescan beats
   building per-transaction tables. *)

(* An earlier read of [k] is the external one; an earlier write makes
   every later read internal. *)
let is_external_read ops i k =
  let rec earlier j = j >= i || (Op.key ops.(j) <> k && earlier (j + 1)) in
  earlier 0

let writes_key_ops ops k =
  let n = Array.length ops in
  let rec go j =
    j < n
    &&
    match ops.(j) with
    | Op.Write (k', _) -> k' = k || go (j + 1)
    | Op.Read _ -> go (j + 1)
  in
  go 0

let final_write ops k =
  let rec back j =
    if j < 0 then -1
    else
      match ops.(j) with
      | Op.Write (k', _) when k' = k -> j
      | Op.Write _ | Op.Read _ -> back (j - 1)
  in
  back (Array.length ops - 1)

(* The projections the paper's [|-] judgements denote, each in
   first-occurrence order.  Up to [short] ops they rescan the array, as
   the flat scans above do: no table to build, and mini-transactions
   have at most four ops.  Rescanning is quadratic, so longer arrays
   (the initial transaction writes every key) fold into hashtables. *)

let short = 8

(* No write before [i] writes [k]. *)
let first_write ops i k =
  let rec earlier j =
    j >= i
    ||
    match ops.(j) with
    | Op.Write (k', _) when k' = k -> false
    | Op.Write _ | Op.Read _ -> earlier (j + 1)
  in
  earlier 0

(* The value of the last write to [k], which must exist. *)
let last_value ops k =
  match ops.(final_write ops k) with
  | Op.Write (_, v) -> v
  | Op.Read _ -> assert false

let external_reads t =
  let ops = t.ops in
  let n = Array.length ops in
  if n <= short then begin
    let acc = ref [] in
    for i = n - 1 downto 0 do
      match ops.(i) with
      | Op.Read (k, v) when is_external_read ops i k -> acc := (k, v) :: !acc
      | Op.Read _ | Op.Write _ -> ()
    done;
    !acc
  end
  else begin
    let written = Hashtbl.create 4 in
    let seen = Hashtbl.create 4 in
    let acc = ref [] in
    Array.iter
      (fun op ->
        match op with
        | Op.Write (k, _) -> Hashtbl.replace written k ()
        | Op.Read (k, v) ->
            if (not (Hashtbl.mem written k)) && not (Hashtbl.mem seen k) then begin
              Hashtbl.replace seen k ();
              acc := (k, v) :: !acc
            end)
      ops;
    List.rev !acc
  end

let final_writes t =
  let ops = t.ops in
  let n = Array.length ops in
  if n <= short then begin
    let acc = ref [] in
    for i = n - 1 downto 0 do
      match ops.(i) with
      | Op.Write (k, _) when first_write ops i k ->
          acc := (k, last_value ops k) :: !acc
      | Op.Write _ | Op.Read _ -> ()
    done;
    !acc
  end
  else begin
    let last = Hashtbl.create 4 in
    let order = ref [] in
    Array.iter
      (fun op ->
        match op with
        | Op.Write (k, v) ->
            if not (Hashtbl.mem last k) then order := k :: !order;
            Hashtbl.replace last k v
        | Op.Read _ -> ())
      ops;
    List.rev_map (fun k -> (k, Hashtbl.find last k)) !order
  end

let intermediate_writes t =
  let ops = t.ops in
  let n = Array.length ops in
  if n <= short then begin
    let acc = ref [] in
    for i = n - 1 downto 0 do
      match ops.(i) with
      | Op.Write (k, v) when v <> last_value ops k -> acc := (k, v) :: !acc
      | Op.Write _ | Op.Read _ -> ()
    done;
    !acc
  end
  else begin
    let final = Hashtbl.create 4 in
    List.iter (fun (k, v) -> Hashtbl.replace final k v) (final_writes t);
    let acc = ref [] in
    Array.iter
      (fun op ->
        match op with
        | Op.Write (k, v) when Hashtbl.find final k <> v -> acc := (k, v) :: !acc
        | Op.Write _ | Op.Read _ -> ())
      ops;
    List.rev !acc
  end

(* Single-key questions scan once at any length: the first op on [k]
   decides its external read, the last write its final value. *)

let read_of t k =
  let ops = t.ops in
  let n = Array.length ops in
  let rec go j =
    if j >= n then None
    else
      match ops.(j) with
      | Op.Read (k', v) when k' = k -> Some v
      | Op.Write (k', _) when k' = k -> None
      | Op.Read _ | Op.Write _ -> go (j + 1)
  in
  go 0

let write_of t k =
  let j = final_write t.ops k in
  if j < 0 then None
  else match t.ops.(j) with Op.Write (_, v) -> Some v | Op.Read _ -> None

let reads_key t k = read_of t k <> None
let writes_key t k = writes_key_ops t.ops k

let keys t =
  let seen = Hashtbl.create 4 in
  let acc = ref [] in
  Array.iter
    (fun op ->
      let k = Op.key op in
      if not (Hashtbl.mem seen k) then begin
        Hashtbl.replace seen k ();
        acc := k :: !acc
      end)
    t.ops;
  List.rev !acc

let pp ppf t =
  let status = match t.status with Committed -> "C" | Aborted -> "A" in
  Format.fprintf ppf "T%d[s%d,%s,%d..%d: %a]" t.id t.session status t.start_ts
    t.commit_ts
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf " ") Op.pp)
    (Array.to_list t.ops)
