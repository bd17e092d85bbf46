(* Every input the program under test sees is generated here from the
   run's seed: clean corpora and streams from Stream_gen (a serial
   execution, so they pass every level by construction), and one small
   faulty history from the simulated engine. *)

type corpus = {
  txns : int;
  keys : int;
  sessions : int;
  dist : Distribution.kind;
}

let params c ~seed =
  {
    Stream_gen.num_txns = c.txns;
    num_keys = c.keys;
    num_sessions = c.sessions;
    dist = c.dist;
    seed;
    ts_skew = 0;
    ts_lie = 0.0;
  }

(* The transactions in arrival (= commit) order. *)
let stream c ~seed =
  let a = Array.make c.txns (Txn.make ~id:0 ~session:0 []) in
  Stream_gen.generate (params c ~seed) (fun t -> a.(t.Txn.id - 1) <- t);
  a

let history c ~seed =
  let a = Array.make (c.txns + 1) (History.init_txn ~num_keys:c.keys) in
  Stream_gen.generate (params c ~seed) (fun t -> a.(t.Txn.id) <- t);
  History.of_array ~num_keys:c.keys ~num_sessions:c.sessions a

type format = Bin | Text

let write_corpus c ~seed ~format path =
  match format with
  | Bin ->
      let w =
        Codec.Bin_writer.create ~num_keys:c.keys ~num_sessions:c.sessions path
      in
      Fun.protect
        ~finally:(fun () -> Codec.Bin_writer.close w)
        (fun () -> Stream_gen.generate (params c ~seed) (Codec.Bin_writer.add w))
  | Text -> Codec.save path (history c ~seed)

let save ~format path h =
  match format with
  | Bin -> Codec.save_bin path h
  | Text -> Codec.save path h

(* 2000 transactions on 40 keys through an engine that skips
   first-committer-wins on 5% of commits: lost updates violate both SER
   and SI, and at this contention every seed produces several. *)
let faulty ~(level : Checker.level) ~seed =
  let num_keys = 40 in
  let spec =
    Mt_gen.generate
      { Mt_gen.num_sessions = 8; num_txns = 2000; num_keys; dist = Distribution.Uniform; seed }
  in
  let engine =
    match level with
    | Checker.SER -> Isolation.Serializable
    | Checker.SI -> Isolation.Snapshot
    | Checker.SSER -> Isolation.Strict_serializable
  in
  let db = { Db.level = engine; fault = Fault.Lost_update 0.05; num_keys; seed } in
  (Scheduler.run ~params:{ Scheduler.seed; max_attempts = 64 } ~db ~spec ())
    .Scheduler.history
