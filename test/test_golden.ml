(* Golden identity: fixed-seed YCSB streams melded under six pipeline
   shapes, each pinned by three digests — the decisions (seq, position,
   verdict, abort reason and deciding stage), the final last-committed
   tree ([Tree.digest]) and every integer counter
   ([Replica.counters_digest]).  A refactor of the pipeline's decision
   path must leave all three unchanged; a change meant to move them
   re-pins them here and says why.

   Each stream executes waves of 16 transactions against the wave-start
   last-committed state, encodes them and feeds the wave through
   [Pipeline.submit_wire_batch], as a replica would.  Inside a wave the
   snapshot lags by at most 16 intentions, so the configs are chosen
   where premeld fires (t * d below the wave) as well as where it does
   not ([with_both], t * d = 50, whose premeld always sees an earlier
   designated state and skips). *)

module Pipeline = Hyder_core.Pipeline
module Premeld = Hyder_core.Premeld
module Executor = Hyder_core.Executor
module Counters = Hyder_core.Counters
module Codec = Hyder_codec.Codec
module Ycsb = Hyder_workload.Ycsb
module Replica = Hyder_cluster.Replica
module Tree = Hyder_tree.Tree

let wave = 16
let txns = 320

let workload distribution =
  {
    Ycsb.default with
    record_count = 4_000;
    payload_size = 16;
    ops_per_txn = 8;
    update_fraction = 0.5;
    distribution;
  }

let stage_slug = function
  | Pipeline.At_premeld -> "pm"
  | Pipeline.At_group_meld -> "gm"
  | Pipeline.At_final_meld -> "fm"

(* Meld one stream; returns its decisions, tree and counters digests. *)
let run ~config ~distribution =
  let w = Ycsb.create ~seed:42L (workload distribution) in
  let p = Pipeline.create ~config ~genesis:(Ycsb.genesis w) () in
  let decided = ref [] in
  let pos = ref 0 in
  let txn_seq = ref 0 in
  while !txn_seq < txns do
    let _, snapshot_pos, snapshot = Pipeline.lcs p in
    let batch =
      List.init wave (fun _ ->
          let e =
            Executor.begin_txn ~snapshot_pos ~snapshot ~server:0
              ~txn_seq:!txn_seq ~isolation:Hyder_codec.Intention.Serializable
              ()
          in
          incr txn_seq;
          Ycsb.apply (Ycsb.next_write_txn w) e;
          match Executor.finish e with
          | None -> Alcotest.fail "read-only draft"
          | Some draft ->
              incr pos;
              (!pos, Codec.encode draft))
    in
    decided := List.rev_append (Pipeline.submit_wire_batch p batch) !decided
  done;
  let decisions = List.rev_append !decided (Pipeline.flush p) in
  Alcotest.(check (list int))
    "every intention decided once, in seq order"
    (List.init txns Fun.id)
    (List.map (fun (d : Pipeline.decision) -> d.Pipeline.seq) decisions);
  let b = Buffer.create 4096 in
  List.iter
    (fun (d : Pipeline.decision) ->
      Printf.bprintf b "%d,%d,%b,%s,%s;" d.Pipeline.seq d.Pipeline.pos
        d.Pipeline.committed
        (match d.Pipeline.reason with
        | None -> "-"
        | Some r -> Pipeline.reason_slug r)
        (stage_slug d.Pipeline.decided_at))
    decisions;
  let _, _, tree = Pipeline.lcs p in
  ( Digest.to_hex (Digest.string (Buffer.contents b)),
    Tree.digest tree,
    Replica.counters_digest (Pipeline.counters p) )

let pm ~t ~d ~g =
  {
    Pipeline.premeld = Some { Premeld.threads = t; distance = d };
    group_size = g;
  }

(* (config name, config, [(stream, pinned digests)]).  Aborts decided at
   premeld / group meld / final meld, uniform then hotspot: plain 0/0/20,
   0/0/246; group meld (with or without [with_both]'s idle premeld)
   0/0/40, 0/84/177; t=2 d=4 g=2 5/0/30, 101/47/105; t=3 d=2 g=4
   11/3/24, 137/71/43; g=3 0/4/57, 0/128/148. *)
let cases =
  let uniform = Ycsb.Uniform and hot = Ycsb.Hotspot 0.01 in
  [
    ( "plain",
      Pipeline.plain,
      [
        ( uniform,
          ( "6c5672abf23279757e06ddfb55237f9c",
            "c27544169e09b0be720c91b82f0c24e2",
            "2baac6847d3c2b6c7510228b8c24d602" ) );
        ( hot,
          ( "32c6862999db2bc4f659a36a606df962",
            "e1860d1f25970dd483785b341c823dc4",
            "77f212197d875ac7a53913b643fc740e" ) );
      ] );
    ( "with_group_meld",
      Pipeline.with_group_meld,
      [
        ( uniform,
          ( "9a5a984dc18640e6526cc2c170659f9d",
            "43812d2f36117c126e9ed3be17a3e88e",
            "b0481b889a2fc0553629fddf92f29249" ) );
        ( hot,
          ( "f2ad7708f0c75ec4f55a33cf0bc355b9",
            "d20fe3e56e6d10aa7051c928f9ca9c16",
            "a0a8c2c489e503382166f3a861e0824a" ) );
      ] );
    ( "with_both",
      Pipeline.with_both,
      [
        ( uniform,
          ( "9a5a984dc18640e6526cc2c170659f9d",
            "4ac7441863efb3f2b361c798adadb6f6",
            "b0481b889a2fc0553629fddf92f29249" ) );
        ( hot,
          ( "f2ad7708f0c75ec4f55a33cf0bc355b9",
            "9e7d355c9379d9e8d76e96a7a31809d6",
            "a0a8c2c489e503382166f3a861e0824a" ) );
      ] );
    ( "pm t=2 d=4; g=2",
      pm ~t:2 ~d:4 ~g:2,
      [
        ( uniform,
          ( "811824cef25e722e4cfeee6b1dddddbe",
            "7f63d42436bd8e33e07b8f190b84b99d",
            "8612562392628878905b9a6a5761ae97" ) );
        ( hot,
          ( "cf164a5e1569e64462e7eaa98dc952c0",
            "f17e9f7a5fd67077262fde6505980d34",
            "6b04b840125e6e2a8291885ad6998732" ) );
      ] );
    ( "pm t=3 d=2; g=4",
      pm ~t:3 ~d:2 ~g:4,
      [
        ( uniform,
          ( "ada8e9ac9c366db1b961b6fd1f3173bd",
            "f2f8093550ae041b600204c52086eebb",
            "b726a0a35b7a3b9d0f1cf4c9e3a00854" ) );
        ( hot,
          ( "bd4795fed4408e62d3cff643b01fb1c5",
            "1b8612bfd27b182ab10a483926ac549d",
            "87dd28334154a9cfebef1cd1801b5c39" ) );
      ] );
    ( "no pm; g=3",
      { Pipeline.premeld = None; group_size = 3 },
      [
        ( uniform,
          ( "51c383a26d6128d626b40d220475c79c",
            "c99c6c0373e2cefa592c2741eac557f0",
            "83e3fe7df52ff1f524ecd1573c57c0b4" ) );
        ( hot,
          ( "138b260e16489032d89ce7046fad4c19",
            "9cc2ebf1243bd01468b50c8d54b4f438",
            "736c95ce2fe7bb24e230fed039054678" ) );
      ] );
  ]

let stream_name = function Ycsb.Hotspot _ -> "hotspot 0.01" | _ -> "uniform"

let test_cases (name, config, streams) =
  List.map
    (fun (distribution, (want_d, want_t, want_c)) ->
      Alcotest.test_case
        (Printf.sprintf "%s, %s" name (stream_name distribution))
        `Quick
        (fun () ->
          let d, t, c = run ~config ~distribution in
          Alcotest.(check string) "decisions digest" want_d d;
          Alcotest.(check string) "tree digest" want_t t;
          Alcotest.(check string) "counters digest" want_c c))
    streams

let () =
  Alcotest.run "golden" [ ("identity", List.concat_map test_cases cases) ]
