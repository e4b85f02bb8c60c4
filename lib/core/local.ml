module Intention = Hyder_codec.Intention

type t = {
  pipeline : Pipeline.t;
  mutable next_txn_seq : int;
  mutable fake_pos : int;  (** synthetic log position source *)
}

let create ?(config = Pipeline.plain) ~genesis () =
  {
    pipeline = Pipeline.create ~config ~genesis ();
    next_txn_seq = 0;
    fake_pos = 0;
  }

let lcs t = Pipeline.lcs t.pipeline
let pipeline t = t.pipeline
let counters t = Pipeline.counters t.pipeline

let submit_draft t (draft : Intention.draft) =
  (* Hand out synthetic, strictly increasing log positions (two per
     intention, imitating the paper's ~2 blocks). *)
  t.fake_pos <- t.fake_pos + 2;
  Pipeline.submit t.pipeline (Intention.assign ~pos:t.fake_pos draft)

let txn t ?(isolation = Intention.Serializable) body =
  let _seq, pos, tree = Pipeline.lcs t.pipeline in
  let txn_seq = t.next_txn_seq in
  t.next_txn_seq <- txn_seq + 1;
  let current () =
    let _, _, t = Pipeline.lcs t.pipeline in
    t
  in
  let e =
    Executor.begin_txn ~current ~snapshot_pos:pos ~snapshot:tree ~server:0
      ~txn_seq ~isolation ()
  in
  let result = body e in
  match Executor.finish e with
  | None -> (result, [])
  | Some draft -> (result, submit_draft t draft)

let flush t = Pipeline.flush t.pipeline
