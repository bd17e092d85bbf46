let to_string (h : History.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "mtc-history v1\n";
  Buffer.add_string buf (Printf.sprintf "keys %d\n" h.num_keys);
  Buffer.add_string buf (Printf.sprintf "sessions %d\n" h.num_sessions);
  Array.iter
    (fun (t : Txn.t) ->
      if t.id <> History.init_id then begin
        Buffer.add_string buf
          (Printf.sprintf "txn %d %d %s %d %d" t.id t.session
             (match t.status with Txn.Committed -> "C" | Txn.Aborted -> "A")
             t.start_ts t.commit_ts);
        Array.iter
          (fun op ->
            Buffer.add_char buf ' ';
            Buffer.add_string buf (Op.to_string op))
          t.ops;
        Buffer.add_char buf '\n'
      end)
    h.txns;
  Buffer.contents buf

(* Parsing is total: any malformed input — truncated op, unknown status,
   duplicate or out-of-order transaction id, key out of range — yields
   [Error] with the 1-based line number of the offending line in the
   original input (comment and blank lines count), never an exception.

   One cursor pass over the string: line bounds by [String.index_from],
   [String.trim]'s whitespace set stripped in place, fields split on
   single spaces, ints and ops read in place by [Op]'s scanners, and
   each [Txn.t] built straight into a growable array.  Every line is
   parsed before any well-formedness error (id order, session and key
   range) is reported, so the first such error is held back until the
   input ends. *)

exception Bad of string

let sp_parse = Obs.Trace.intern "parse"
let placeholder = Txn.make ~id:0 ~session:0 []
let no_op = Op.Read (0, 0)

let is_space = function ' ' | '\t' | '\n' | '\r' | '\012' -> true | _ -> false

(* End of the single-space-separated field starting at [i], before [hi]. *)
let field_end s i hi =
  let j = ref i in
  while !j < hi && String.unsafe_get s !j <> ' ' do
    incr j
  done;
  !j

let of_string s = Obs.Trace.with_span sp_parse @@ fun () ->
  let len = String.length s in
  let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt in
  let faill line fmt =
    Printf.ksprintf (fun m -> raise (Bad (Printf.sprintf "line %d: %s" line m))) fmt
  in
  let sub a b = String.sub s a (b - a) in
  (* The current content line is [lo, hi) on physical line [ln]; [next]
     is where the following physical line starts ([len + 1] once the
     last one, possibly empty, has been consumed). *)
  let next = ref 0 and ln = ref 0 and lo = ref 0 and hi = ref 0 in
  let rec content () =
    !next <= len
    &&
    let start = !next in
    let stop = try String.index_from s start '\n' with Not_found -> len in
    next := stop + 1;
    incr ln;
    let a = ref start and b = ref stop in
    while !a < !b && is_space (String.unsafe_get s !a) do
      incr a
    done;
    while !b > !a && is_space (String.unsafe_get s (!b - 1)) do
      decr b
    done;
    if !a = !b || String.unsafe_get s !a = '#' then content ()
    else begin
      lo := !a;
      hi := !b;
      true
    end
  in
  let is_text a b lit =
    b - a = String.length lit
    &&
    let i = ref 0 in
    while !i < b - a && String.unsafe_get s (a + !i) = lit.[!i] do
      incr i
    done;
    !i = b - a
  in
  let parse_kv name line a b =
    let sp = field_end s a b in
    if sp = b || field_end s (sp + 1) b < b || not (is_text a sp name) then
      faill line "expected %S header, got %S" (name ^ " <n>") (sub a b);
    try Op.int_of_sub s (sp + 1) b
    with Op.Malformed -> faill line "bad %s count %S" name (sub (sp + 1) b)
  in
  try
    if not (content ()) then fail "empty input";
    if not (is_text !lo !hi "mtc-history v1") then
      faill !ln "missing magic line 'mtc-history v1'";
    let truncated () = fail "truncated header (want magic, keys, sessions)" in
    if not (content ()) then truncated ();
    let keys_ln = !ln and keys_lo = !lo and keys_hi = !hi in
    if not (content ()) then truncated ();
    let num_keys = parse_kv "keys" keys_ln keys_lo keys_hi in
    let num_sessions = parse_kv "sessions" !ln !lo !hi in
    let txns = ref (Array.make ((len / 48) + 16) placeholder) in
    let count = ref 0 in
    let invalid = ref None in
    let bad line fmt =
      Printf.ksprintf
        (fun m -> invalid := Some (Printf.sprintf "line %d: %s" line m))
        fmt
    in
    let out_of_range op = Op.key op < 0 || Op.key op >= num_keys in
    (* Field cursor: [field ()] moves [fa, fe) to the next
       single-space-separated field of the current line. *)
    let fa = ref 0 and fe = ref 0 in
    let field () =
      fa := !fe + 1;
      fe := field_end s !fa !hi
    in
    let int line what =
      try Op.int_of_sub s !fa !fe
      with Op.Malformed -> faill line "bad %s %S" what (sub !fa !fe)
    in
    while content () do
      let line = !ln in
      let spaces = ref 0 in
      for i = !lo to !hi - 1 do
        if String.unsafe_get s i = ' ' then incr spaces
      done;
      fe := !lo - 1;
      field ();
      if !spaces < 5 || not (is_text !fa !fe "txn") then
        faill line "unparseable txn line %S" (sub !lo !hi);
      field ();
      let id = int line "txn id" in
      field ();
      let session = int line "session" in
      field ();
      let status =
        if is_text !fa !fe "C" then Txn.Committed
        else if is_text !fa !fe "A" then Txn.Aborted
        else faill line "bad status %S (want C or A)" (sub !fa !fe)
      in
      field ();
      let start_ts = int line "start_ts" in
      field ();
      let commit_ts = int line "commit_ts" in
      (* The fields after the sixth are the ops. *)
      let ops = Array.make (!spaces - 5) no_op in
      for j = 0 to Array.length ops - 1 do
        field ();
        ops.(j) <-
          (try Op.of_sub s !fa !fe
           with Op.Malformed -> faill line "bad operation %S" (sub !fa !fe))
      done;
      (* Ids must be the dense sequence 1..n in order (the implicit
         initial transaction is id 0).  Before the first error the
         earlier ids are exactly 1..count, which tells a duplicate from
         a gap. *)
      (if !invalid = None then
         let expected = !count + 1 in
         if id <> expected then
           if id >= 1 && id < expected then bad line "duplicate txn id %d" id
           else bad line "txn id %d out of order (expected %d)" id expected
         else if session < 1 || session > num_sessions then
           bad line "session %d out of [1,%d]" session num_sessions
         else
           match Array.find_opt out_of_range ops with
           | Some op -> bad line "key %d out of [0,%d)" (Op.key op) num_keys
           | None -> ());
      incr count;
      if !count >= Array.length !txns then begin
        let grown = Array.make (2 * Array.length !txns) placeholder in
        Array.blit !txns 0 grown 0 !count;
        txns := grown
      end;
      !txns.(!count) <- { Txn.id; session; ops; status; start_ts; commit_ts }
    done;
    match !invalid with
    | Some m -> Error m
    | None -> (
        (* every History.of_array precondition was just checked per
           line; keep the guard anyway so parsing stays total *)
        try
          let all = Array.sub !txns 0 (!count + 1) in
          all.(0) <- History.init_txn ~num_keys;
          Ok (History.of_array ~num_keys ~num_sessions all)
        with Invalid_argument m -> fail "%s" m)
  with Bad m -> Error m

let save path h =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string h))

(* --- binary format ---------------------------------------------------

   Layout:
     "mtcbin1\n"                                magic, 8 bytes
     uvarint num_keys, num_sessions, block_size
     txn records (Binio.add_txn), ids 1..n in order,
       grouped into blocks of block_size txns
     footer at byte offset FOFF:
       uvarint num_txns, uvarint num_blocks,
       one uvarint absolute byte offset per block
     8-byte LE FOFF, then "mtcE"                trailer, 12 bytes

   The trailer is fixed-width so a loader can find the footer without
   scanning; the per-block offsets let domains decode disjoint txn
   ranges concurrently from one shared mmap.  The initial transaction is
   implicit, exactly as in the text format. *)

let bin_magic = "mtcbin1\n"
let bin_trailer_magic = "mtcE"
let default_block_size = 4096

module Bin_writer = struct
  type t = {
    oc : out_channel;
    buf : Buffer.t;
    block_size : int;
    num_keys : int;
    num_sessions : int;
    offsets : Int_vec.t;
    mutable count : int;  (* transactions written so far *)
    mutable flushed : int;  (* bytes already on disk *)
    mutable closed : bool;
  }

  let pos t = t.flushed + Buffer.length t.buf

  let flush t =
    Buffer.output_buffer t.oc t.buf;
    t.flushed <- t.flushed + Buffer.length t.buf;
    Buffer.clear t.buf

  let create ?(block_size = default_block_size) ~num_keys ~num_sessions path =
    if block_size < 1 then
      invalid_arg "Codec.Bin_writer.create: block_size must be >= 1";
    let oc = open_out_bin path in
    let buf = Buffer.create 65536 in
    Buffer.add_string buf bin_magic;
    Binio.add_uvarint buf num_keys;
    Binio.add_uvarint buf num_sessions;
    Binio.add_uvarint buf block_size;
    {
      oc;
      buf;
      block_size;
      num_keys;
      num_sessions;
      offsets = Int_vec.create 64;
      count = 0;
      flushed = 0;
      closed = false;
    }

  let add t (txn : Txn.t) =
    if t.closed then invalid_arg "Codec.Bin_writer.add: writer is closed";
    if txn.id <> t.count + 1 then
      invalid_arg
        (Printf.sprintf "Codec.Bin_writer.add: txn id %d, expected %d" txn.id
           (t.count + 1));
    if txn.session < 1 || txn.session > t.num_sessions then
      invalid_arg
        (Printf.sprintf "Codec.Bin_writer.add: T%d session %d out of [1,%d]"
           txn.id txn.session t.num_sessions);
    if txn.start_ts > txn.commit_ts then
      invalid_arg
        (Printf.sprintf
           "Codec.Bin_writer.add: T%d start_ts %d after commit_ts %d" txn.id
           txn.start_ts txn.commit_ts);
    Array.iter
      (fun op ->
        let k = Op.key op in
        if k < 0 || k >= t.num_keys then
          invalid_arg
            (Printf.sprintf "Codec.Bin_writer.add: T%d key %d out of [0,%d)"
               txn.id k t.num_keys))
      txn.ops;
    if t.count mod t.block_size = 0 then Int_vec.push t.offsets (pos t);
    Binio.add_txn t.buf txn;
    t.count <- t.count + 1;
    if Buffer.length t.buf >= 1 lsl 20 then flush t

  let close t =
    if not t.closed then begin
      t.closed <- true;
      let foff = pos t in
      Binio.add_uvarint t.buf t.count;
      Binio.add_uvarint t.buf (Int_vec.length t.offsets);
      for b = 0 to Int_vec.length t.offsets - 1 do
        Binio.add_uvarint t.buf (Int_vec.get t.offsets b)
      done;
      Buffer.add_int64_le t.buf (Int64.of_int foff);
      Buffer.add_string t.buf bin_trailer_magic;
      flush t;
      close_out t.oc
    end
end

let save_bin ?block_size path (h : History.t) =
  let w =
    Bin_writer.create ?block_size ~num_keys:h.num_keys
      ~num_sessions:h.num_sessions path
  in
  Fun.protect
    ~finally:(fun () -> Bin_writer.close w)
    (fun () ->
      Array.iter
        (fun (t : Txn.t) -> if t.id <> History.init_id then Bin_writer.add w t)
        h.txns)

let sp_parse_bin = Obs.Trace.intern "parse/bin"

let decode_bin ?pool src =
  let r = Binio.reader_of_source src in
  let total = Binio.Source.length src in
  let m = Binio.read_bytes r (String.length bin_magic) in
  if m <> bin_magic then Binio.fail "bad binary magic";
  let num_keys = Binio.read_uvarint r in
  let num_sessions = Binio.read_uvarint r in
  let block_size = Binio.read_uvarint r in
  if num_keys < 1 || num_sessions < 0 || block_size < 1 then
    Binio.fail "implausible binary header (%d keys, %d sessions, block %d)"
      num_keys num_sessions block_size;
  if total < Binio.pos r + 12 then Binio.fail "missing binary trailer";
  Binio.seek r (total - 12);
  let foff = ref 0 in
  for i = 0 to 7 do
    foff := !foff lor (Binio.read_byte r lsl (8 * i))
  done;
  if Binio.read_bytes r 4 <> bin_trailer_magic then
    Binio.fail "bad binary trailer magic";
  if !foff < 0 || !foff > total - 12 then
    Binio.fail "footer offset %d out of file" !foff;
  Binio.seek r !foff;
  let num_txns = Binio.read_uvarint r in
  let num_blocks = Binio.read_uvarint r in
  if
    num_txns < 0 || num_blocks < 0
    || num_blocks <> (num_txns + block_size - 1) / block_size
  then
    Binio.fail "footer disagrees with itself (%d txns, %d blocks)" num_txns
      num_blocks;
  let offsets = Array.init num_blocks (fun _ -> Binio.read_uvarint r) in
  Array.iter
    (fun o -> if o < 0 || o > !foff then Binio.fail "block offset %d out of file" o)
    offsets;
  let txns = Array.make (num_txns + 1) (History.init_txn ~num_keys) in
  (* Each block decodes its own txn range from its own cursor over the
     shared map; ids are dense and block-aligned, so every write lands
     in a distinct slot.  A decode failure propagates per the pool's
     lowest-index rule — the same block that would fail sequentially. *)
  Pool.tasks pool
    (List.init num_blocks (fun b () ->
         let br = Binio.reader_of_source ~pos:offsets.(b) src in
         let first = (b * block_size) + 1 in
         let last = Stdlib.min num_txns (first + block_size - 1) in
         for id = first to last do
           let t = Binio.read_txn br in
           if t.Txn.id <> id then
             Binio.fail "txn id %d where %d expected (block %d)" t.Txn.id id b;
           txns.(id) <- t
         done));
  (num_keys, num_sessions, txns)

let load_bin ?pool path =
  Obs.Trace.with_span sp_parse_bin @@ fun () ->
  try
    let src = Binio.Source.map_file path in
    let num_keys, num_sessions, txns = decode_bin ?pool src in
    try Ok (History.of_array ?pool ~num_keys ~num_sessions txns)
    with Invalid_argument m -> Error m
  with
  | Binio.Decode_error m -> Error (Printf.sprintf "%s: %s" path m)
  | Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "%s: %s" path (Unix.error_message e))
  | Sys_error m -> Error m

type format = Auto | Text | Bin

let format_of_string = function
  | "auto" -> Some Auto
  | "text" -> Some Text
  | "bin" -> Some Bin
  | _ -> None

let sniff_bin path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let buf = Bytes.create (String.length bin_magic) in
        match In_channel.really_input ic buf 0 (Bytes.length buf) with
        | Some () -> Bytes.to_string buf = bin_magic
        | None -> false)
  with Sys_error _ -> false

let load_text path =
  try
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> of_string (In_channel.input_all ic))
  with Sys_error m -> Error m

let load ?(format = Auto) ?pool path =
  match format with
  | Text -> load_text path
  | Bin -> load_bin ?pool path
  | Auto -> if sniff_bin path then load_bin ?pool path else load_text path
