module Intention = Hyder_codec.Intention
module Codec = Hyder_codec.Codec
module Reassembler = Codec.Blocks.Reassembler

type t = {
  server_id : int;
  block_size : int;
  pipeline : Pipeline.t;
  reassembler : Reassembler.t;
  encoder : Codec.Encoder.t;  (** serves every [txn]'s encode *)
  buffered : (int, string) Hashtbl.t;  (** raw blocks past the first gap *)
  mutable next_pos : int;
  mutable next_txn_seq : int;
  mutable decision_handler : Pipeline.decision -> unit;
  mutable meld_handler : pos:int -> unit;
}

type checkpoint = {
  replay_from : int;
  meld : Checkpoint.t;
  partials : Reassembler.t;
}

let make ~server_id ~block_size ~next_pos ~next_txn_seq pipeline reassembler =
  {
    server_id;
    block_size;
    pipeline;
    reassembler;
    encoder = Codec.Encoder.create ();
    buffered = Hashtbl.create 16;
    next_pos;
    next_txn_seq;
    decision_handler = ignore;
    meld_handler = (fun ~pos:_ -> ());
  }

let create ?(config = Pipeline.plain) ?(block_size = 8192) ?flight ~server_id
    ~genesis () =
  make ~server_id ~block_size ~next_pos:0 ~next_txn_seq:0
    (Pipeline.create ~config ?flight ~genesis ())
    (Reassembler.create ())

(* Blocks at positions < [next_pos] are all in the pipeline or in the
   reassembler's partials, so freezing both makes a replay from
   [next_pos] exact even when an intention straddles the checkpoint. *)
let checkpoint t =
  Option.map
    (fun meld ->
      {
        replay_from = t.next_pos;
        meld;
        partials = Reassembler.copy t.reassembler;
      })
    (Pipeline.checkpoint t.pipeline)

let restore ?(config = Pipeline.plain) ?(block_size = 8192) ?flight
    ?(next_txn_seq = 0) ~server_id ckpt =
  make ~server_id ~block_size ~next_pos:ckpt.replay_from ~next_txn_seq
    (Pipeline.restore ~config ?flight ckpt.meld)
    (Reassembler.copy ckpt.partials)

let replay_from ckpt = ckpt.replay_from
let server_id t = t.server_id
let lcs t = Pipeline.lcs t.pipeline
let counters t = Pipeline.counters t.pipeline
let next_pos t = t.next_pos
let buffered t = Hashtbl.length t.buffered
let on_decision t f = t.decision_handler <- f
let on_meld t f = t.meld_handler <- f

let txn t ?(isolation = Intention.Serializable) body =
  let _, pos, tree = Pipeline.lcs t.pipeline in
  let txn_seq = t.next_txn_seq in
  t.next_txn_seq <- txn_seq + 1;
  let e =
    Executor.begin_txn ~snapshot_pos:pos ~snapshot:tree ~server:t.server_id
      ~txn_seq ~isolation ()
  in
  let result = body e in
  match Executor.finish e with
  | None -> (result, None)
  | Some draft ->
      let bytes = Codec.Encoder.encode t.encoder draft in
      let blocks =
        Codec.Blocks.split ~block_size:t.block_size ~server:t.server_id
          ~txn_seq bytes
      in
      (result, Some (txn_seq, blocks))

let deliver t ds =
  List.iter
    (fun (d : Pipeline.decision) ->
      if d.Pipeline.server = t.server_id then t.decision_handler d)
    ds;
  ds

type observed = Accepted of Pipeline.decision list | Duplicate | Rejected

(* Feed the block at [next_pos] and meld what it completes; [None] when
   the reassembler rejects it, which leaves every piece of state as it
   was.  A CRC-valid intention that fails to decode still raises: every
   server reads the same bytes, so skipping it would change semantics. *)
let feed t block =
  let pos = t.next_pos in
  match Reassembler.feed t.reassembler ~pos block with
  | exception Codec.Corrupt _ -> None
  | completed ->
      let ds =
        match completed with
        | None -> []
        | Some (ipos, bytes) ->
            Pipeline.submit_wire_batch t.pipeline [ (ipos, bytes) ]
      in
      t.next_pos <- pos + 1;
      t.meld_handler ~pos;
      Some ds

(* A buffered block that fails to feed is dropped, as if never delivered:
   the gap it leaves is the caller's to repair. *)
let rec drain t rev_ds =
  match Hashtbl.find_opt t.buffered t.next_pos with
  | None -> List.rev rev_ds
  | Some block -> (
      Hashtbl.remove t.buffered t.next_pos;
      match feed t block with
      | None -> List.rev rev_ds
      | Some ds -> drain t (List.rev_append ds rev_ds))

let observe_block t ~pos block =
  if pos < t.next_pos || Hashtbl.mem t.buffered pos then Duplicate
  else if pos > t.next_pos then
    match Codec.Blocks.verify ~pos block with
    | () ->
        Hashtbl.replace t.buffered pos block;
        Accepted []
    | exception Codec.Corrupt _ -> Rejected
  else
    match feed t block with
    | None -> Rejected
    | Some ds -> Accepted (deliver t (drain t (List.rev ds)))

let flush t = deliver t (Pipeline.flush t.pipeline)
let prune t ~keep = Pipeline.prune t.pipeline ~keep
