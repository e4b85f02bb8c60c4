(* The one scheduler, fed from the wire (Section 3.4's determinism):
   replaying a recorded stream through [submit_wire_batch], in slabs of
   any size, decides exactly what the in-memory [submit] replay of the
   same intentions decides, and every slab size yields the same physical
   trees, premeld work and integer counters.  Also the invalid-stream
   and corrupt-intention errors, the Clock and the frozen runtime
   descriptors. *)

module Tree = Hyder_tree.Tree
module Pipeline = Hyder_core.Pipeline
module Premeld = Hyder_core.Premeld
module Runtime = Hyder_core.Runtime
module Counters = Hyder_core.Counters
module Executor = Hyder_core.Executor
module I = Hyder_codec.Intention
module Codec = Hyder_codec.Codec
module Clock = Hyder_util.Clock
module Rng = Hyder_util.Rng
module Replica = Hyder_cluster.Replica

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let genesis_n = 2000

(* Record a deterministic intention stream by running a sequential
   pipeline.  Snapshots lag 0..79 states behind the LCS, so the stream
   mixes premeld-skipped (designated state predates snapshot) with
   genuinely premeld-bound intentions; writes land in a small key range
   so real conflicts and aborts occur.

   The generator is wire-fed, like a real replica: each draft is encoded
   and the generator melds the *decoded* intention.  The log is the wire
   — executors take snapshots of wire-built states, so the payload
   elisions and version references the encoder emits resolve on any
   replica that replays the same bytes, and every replay world (decoded
   or re-fed with these same intention objects) evolves isomorphically
   to the generator's. *)
let make_stream ~config ~txns ~seed =
  let genesis = Helpers.genesis genesis_n in
  let rng = Rng.create (Int64.of_int seed) in
  let gen = Pipeline.create ~config ~genesis () in
  let history = ref [ (-1, genesis) ] (* newest first *) in
  let hist_len = ref 1 in
  let intentions = ref [] in
  let wires = ref [] in
  let next_pos = ref 0 in
  for txn_seq = 0 to txns - 1 do
    let lag = min (Rng.int rng 80) (!hist_len - 1) in
    let snapshot_pos, snapshot = List.nth !history lag in
    let isolation =
      if Rng.int rng 4 = 0 then I.Snapshot_isolation else I.Serializable
    in
    let e =
      Executor.begin_txn ~snapshot_pos ~snapshot ~server:0 ~txn_seq ~isolation
        ()
    in
    for _ = 1 to Rng.int rng 3 do
      ignore (Executor.read e (Rng.int rng genesis_n))
    done;
    for _ = 1 to 1 + Rng.int rng 2 do
      Executor.write e (Rng.int rng genesis_n) (Printf.sprintf "w%d" txn_seq)
    done;
    match Executor.finish e with
    | None -> ()
    | Some draft ->
        next_pos := !next_pos + 1 + Rng.int rng 2;
        let src = Codec.encode draft in
        let intention = Pipeline.decode gen ~pos:!next_pos src in
        intentions := intention :: !intentions;
        wires := (!next_pos, src) :: !wires;
        ignore (Pipeline.submit gen intention);
        let _, pos, tree = Pipeline.lcs gen in
        history := (pos, tree) :: !history;
        incr hist_len
  done;
  ignore (Pipeline.flush gen);
  (genesis, List.rev !intentions, List.rev !wires)

let pm_counts p =
  let s = (Pipeline.counters p).Counters.premeld in
  (s.Counters.intentions, s.Counters.nodes_visited)

(* The in-memory baseline: replay the recorded intention objects through
   a sequential pipeline, one [submit] at a time. *)
let replay_submit ~config genesis intentions =
  let p = Pipeline.create ~config ~genesis () in
  let decisions =
    List.concat_map (Pipeline.submit p) intentions @ Pipeline.flush p
  in
  let _, _, final = Pipeline.lcs p in
  (decisions, final, pm_counts p)

let same_decision (a : Pipeline.decision) (b : Pipeline.decision) =
  a.Pipeline.seq = b.Pipeline.seq
  && a.Pipeline.pos = b.Pipeline.pos
  && a.Pipeline.committed = b.Pipeline.committed
  && a.Pipeline.reason = b.Pipeline.reason
  && a.Pipeline.decided_at = b.Pipeline.decided_at

(* Replay a recorded stream from its wire form, feeding
   [submit_wire_batch] in slabs of [slab] encoded intentions.  Also
   returns the digest of every integer counter (wall-clock seconds
   excluded). *)
let replay_wire ?runtime ~config ~slab genesis wires =
  let p = Pipeline.create ~config ?runtime ~genesis () in
  let rec take k acc = function
    | x :: tl when k > 0 -> take (k - 1) (x :: acc) tl
    | rest -> (List.rev acc, rest)
  in
  let rec go acc = function
    | [] -> acc
    | l ->
        let batch, rest = take slab [] l in
        go (List.rev_append (Pipeline.submit_wire_batch p batch) acc) rest
  in
  let decisions = List.rev (go [] wires) @ Pipeline.flush p in
  let _, _, final = Pipeline.lcs p in
  let digest = Replica.counters_digest (Pipeline.counters p) in
  (decisions, final, pm_counts p, digest)

let same_decisions ~name d bd =
  check (name ^ ": decision count") true (List.length d = List.length bd);
  check (name ^ ": decisions identical") true (List.for_all2 same_decision d bd)

(* Slabs from a one-intention trickle to one giant burst; 256 is the
   batch size the macro benchmark feeds. *)
let slabs = [ 1; 3; 5; 7; 11; 17; 23; 37; 256; max_int ]

(* Every slab's decisions must match the in-memory baseline exactly (the
   semantic contract).  Trees and visit counters are compared against the
   one-batch wire replay instead: meld's pointer-sharing shortcuts make
   the physical output depend on how the intention's outside pointers
   alias the replica's own state nodes, and a decoded stream aliases
   differently from an in-memory one — what must hold is that every feed
   of the same bytes agrees bit-for-bit. *)
let check_slabs ~config ~txns ~seed ~slabs () =
  let genesis, intentions, wires = make_stream ~config ~txns ~seed in
  check "stream not trivial" true (List.length intentions > txns / 2);
  let bd, _, bcounts = replay_submit ~config genesis intentions in
  check_int "every intention decided" (List.length intentions)
    (List.length bd);
  if config.Pipeline.premeld <> None then
    check "premeld actually ran" true
      (fst bcounts > 0);
  let _, wfinal, wcounts, wdigest =
    replay_wire ~config ~slab:max_int genesis wires
  in
  List.iter
    (fun slab ->
      let name = Printf.sprintf "seed %d slab %d" seed (min slab 999_999) in
      let d, final, counts, digest = replay_wire ~config ~slab genesis wires in
      same_decisions ~name d bd;
      check (name ^ ": final state physically identical") true
        (Tree.physically_equal final wfinal);
      check (name ^ ": premeld work identical") true
        (counts = wcounts);
      Alcotest.(check string) (name ^ ": counters identical") wdigest digest)
    slabs

(* The paper's configuration: 5 premeld threads, distance 10, groups of
   2. *)
let test_paper_config () =
  check_slabs
    ~config:
      {
        Pipeline.premeld = Some { Premeld.threads = 5; distance = 10 };
        group_size = 2;
      }
    ~txns:400 ~seed:7 ~slabs ()

let test_small_distance () =
  check_slabs
    ~config:
      {
        Pipeline.premeld = Some { Premeld.threads = 2; distance = 1 };
        group_size = 1;
      }
    ~txns:300 ~seed:21 ~slabs ()

let test_big_groups () =
  check_slabs
    ~config:
      {
        Pipeline.premeld = Some { Premeld.threads = 3; distance = 2 };
        group_size = 4;
      }
    ~txns:300 ~seed:33 ~slabs ()

(* group_size = threads*distance + 1, the largest group [create]
   accepts: just before a group completes, the state the next premeld is
   designated to read is the newest one recorded.  (Larger groups are
   rejected, see [test_invalid_stream_same_error].) *)
let test_group_at_window_bound () =
  check_slabs
    ~config:
      {
        Pipeline.premeld = Some { Premeld.threads = 2; distance = 2 };
        group_size = 5;
      }
    ~txns:200 ~seed:55 ~slabs ()

let test_premeld_off () =
  check_slabs
    ~config:{ Pipeline.premeld = None; group_size = 2 }
    ~txns:200 ~seed:77 ~slabs ()

(* The frozen [Runtime.pipelined] descriptor that [benchmark/] still
   passes runs the one scheduler: one giant burst, a mid-size slab and a
   one-intention trickle fed through it must equal the in-memory
   baseline's decisions and the default one-batch wire replay's trees,
   premeld work and integer counters. *)
let test_pipelined_slab_sweep () =
  let config =
    {
      Pipeline.premeld = Some { Premeld.threads = 5; distance = 10 };
      group_size = 2;
    }
  in
  let genesis, intentions, wires = make_stream ~config ~txns:300 ~seed:99 in
  let bd, _, _ = replay_submit ~config genesis intentions in
  check_int "every intention decided" (List.length intentions)
    (List.length bd);
  let _, wfinal, wcounts, wdigest =
    replay_wire ~config ~slab:max_int genesis wires
  in
  let runtime = Runtime.pipelined ~domains:2 in
  List.iter
    (fun slab ->
      let name = Printf.sprintf "pipe:2 slab %d" (min slab 999_999) in
      let d, final, counts, digest =
        replay_wire ~runtime ~config ~slab genesis wires
      in
      same_decisions ~name d bd;
      check (name ^ ": final state physically identical") true
        (Tree.physically_equal final wfinal);
      check (name ^ ": premeld work identical") true
        (counts = wcounts);
      Alcotest.(check string) (name ^ ": counters identical") wdigest digest)
    [ max_int; 17; 1 ]

let prop_wire_sweep =
  QCheck2.Test.make ~name:"wire = submit over stream and slab" ~count:20
    ~print:(fun (seed, slab) -> Printf.sprintf "seed %d slab %d" seed slab)
    QCheck2.Gen.(
      pair (int_bound 100_000)
        (frequency [ (4, int_range 1 64); (1, return max_int) ]))
    (fun (seed, slab) ->
      check_slabs
        ~config:
          {
            Pipeline.premeld = Some { Premeld.threads = 5; distance = 10 };
            group_size = 2;
          }
        ~txns:300 ~seed ~slabs:[ slab ] ();
      true)

(* A short hand-built wire stream at log positions 1, 2, 3, ...:
   intention [k] executes against the state [lag k] entries back in the
   generator's history (0 = the newest recorded).  When [lie k] holds,
   its header names snapshot [never_recorded] instead, a position the
   log never reaches, and the generator leaves it out.  Also returns the
   wire-fed generator's own decisions and final tree. *)
let never_recorded = 1_000_000

let chain_stream ?(lie = fun _ -> false) ~config ~txns ~lag () =
  let genesis = Helpers.genesis genesis_n in
  let gen = Pipeline.create ~config ~genesis () in
  let history = ref [ (-1, genesis) ] in
  let wires = ref [] in
  let decisions = ref [] in
  for k = 0 to txns - 1 do
    let snapshot_pos, snapshot = List.nth !history (lag k) in
    let e =
      Executor.begin_txn
        ~snapshot_pos:(if lie k then never_recorded else snapshot_pos)
        ~snapshot ~server:0 ~txn_seq:k ~isolation:I.Serializable ()
    in
    ignore (Executor.read e (k * 7 mod genesis_n));
    Executor.write e (k * 13 mod genesis_n) (Printf.sprintf "c%d" k);
    let src =
      match Executor.finish e with
      | Some d -> Codec.encode d
      | None -> assert false
    in
    let pos = k + 1 in
    wires := (pos, src) :: !wires;
    if not (lie k) then begin
      decisions :=
        List.rev_append
          (Pipeline.submit gen (Pipeline.decode gen ~pos src))
          !decisions;
      let _, lpos, tree = Pipeline.lcs gen in
      history := (lpos, tree) :: !history
    end
  done;
  let decisions =
    List.rev (List.rev_append (Pipeline.flush gen) !decisions)
  in
  let _, _, final = Pipeline.lcs gen in
  (genesis, List.rev !wires, (decisions, final))

(* A corrupt member in the middle of a batch raises [Corrupt] once every
   intention before it has decoded and melded: the deserialize counters
   at the raise count every earlier intention and not the corrupt one.
   A one-intention trickle of the same stream raises the same error with
   the same counts. *)
let test_corrupt_mid_batch () =
  let config = Pipeline.with_premeld in
  let prefix = 20 and batch = 21 in
  let bad = prefix + (batch / 2) in
  let genesis, wires, _ =
    chain_stream ~config ~txns:(prefix + batch)
      ~lag:(fun k -> if k = bad then bad - prefix else 0)
      ()
  in
  let wires =
    List.mapi
      (fun k (pos, src) ->
        if k = bad then (pos, String.sub src 0 (String.length src - 1))
        else (pos, src))
      wires
  in
  let first = List.filteri (fun k _ -> k < prefix) wires in
  let second = List.filteri (fun k _ -> k >= prefix) wires in
  let run batches =
    let p = Pipeline.create ~config ~genesis () in
    let rec go = function
      | [] -> Alcotest.fail "truncated intention accepted"
      | b :: rest -> (
          match Pipeline.submit_wire_batch p b with
          | exception Codec.Corrupt m -> m
          | _ -> go rest)
    in
    let msg = go batches in
    let c = Pipeline.counters p in
    ( msg,
      c.Counters.deserialize.Counters.intentions,
      c.Counters.deserialize.Counters.nodes_visited,
      Hyder_util.Stats.Summary.count c.Counters.intention_bytes )
  in
  let msg, n, nodes, bytes = run [ first; second ] in
  check_int "every earlier intention counted" bad n;
  check_int "intention_bytes counts the same ones" bad bytes;
  let tmsg, tn, tnodes, tbytes = run (List.map (fun w -> [ w ]) wires) in
  Alcotest.(check string) "trickle: same Corrupt message" msg tmsg;
  check_int "trickle: same deserialize intentions" n tn;
  check_int "trickle: same deserialize nodes" nodes tnodes;
  check_int "trickle: same intention_bytes count" bytes tbytes

(* A stream naming a snapshot the log never records fails with the
   invalid-stream [Failure], whatever the slab. *)
let test_invalid_stream_same_error () =
  let config = Pipeline.with_both in
  let genesis, wires, _ =
    chain_stream ~config ~txns:25 ~lie:(fun k -> k = 12) ~lag:(fun _ -> 0) ()
  in
  let run batches =
    let p = Pipeline.create ~config ~genesis () in
    let feed b = ignore (Pipeline.submit_wire_batch p b) in
    match List.iter feed batches with
    | exception Failure m -> m
    | () -> Alcotest.fail "invalid stream accepted"
  in
  let want = run [ wires ] in
  check "names the stream invalid" true
    (String.starts_with ~prefix:"Pipeline.submit_wire_batch: intention at"
       want);
  Alcotest.(check string) "trickle: same error" want
    (run (List.map (fun w -> [ w ]) wires));
  (* group_size beyond threads * distance + 1 would hold back a member's
     designated premeld input until its own group completes: refused at
     [create] and at [restore] *)
  let config =
    {
      Pipeline.premeld = Some { Premeld.threads = 1; distance = 1 };
      group_size = 3;
    }
  in
  let genesis = Helpers.genesis 8 in
  let ckpt =
    let src =
      Pipeline.create
        ~config:{ config with Pipeline.group_size = 2 }
        ~genesis ()
    in
    match Pipeline.checkpoint src with
    | Some c -> c
    | None -> Alcotest.fail "fresh pipeline has no checkpoint"
  in
  let rejected name f =
    match f () with
    | exception Invalid_argument m ->
        check (name ^ ": names the group size") true
          (String.ends_with ~suffix:"exceeds threads * distance + 1 = 2" m)
    | _ -> Alcotest.failf "%s accepted group_size 3 at t=1 d=1" name
  in
  rejected "create" (fun () -> Pipeline.create ~config ~genesis ());
  rejected "restore" (fun () -> Pipeline.restore ~config ckpt)

(* A chained stream, every intention naming its predecessor's state, is
   the worst case for snapshot lag: no decode can start before final
   meld records the state just before it.  Replayed in one batch and as
   a trickle, it must equal the wire-fed generator's own run. *)
let test_chained_stream () =
  List.iter
    (fun (name, config) ->
      let genesis, wires, (gd, gfinal) =
        chain_stream ~config ~txns:60 ~lag:(fun _ -> 0) ()
      in
      List.iter
        (fun slab ->
          let name = Printf.sprintf "%s slab %d" name (min slab 999_999) in
          let d, final, _, _ = replay_wire ~config ~slab genesis wires in
          same_decisions ~name d gd;
          check (name ^ ": final state physically identical") true
            (Tree.physically_equal final gfinal))
        [ 1; max_int ])
    [ ("chain plain", Pipeline.plain); ("chain both", Pipeline.with_both) ]

(* ------------------------------------------------------------------ *)
(* Clock and Runtime descriptors                                        *)
(* ------------------------------------------------------------------ *)

let test_clock_monotonic () =
  let prev = ref (Clock.now ()) in
  for _ = 1 to 1000 do
    let t = Clock.now () in
    check "never goes backwards" true (t >= !prev);
    prev := t
  done;
  check "elapsed is non-negative" true (Clock.elapsed (Clock.now ()) >= 0.0)

(* [Runtime.backend] survives only for [benchmark/]: [Pipelined] runs the
   one scheduler and reports no offload, [Parallel] is refused, and a
   [Pipelined] with no domain cannot be built. *)
let test_frozen_runtime_surface () =
  let config = Pipeline.with_both in
  let genesis, _, wires = make_stream ~config ~txns:60 ~seed:5 in
  let run runtime =
    let p = Pipeline.create ~config ?runtime ~genesis () in
    let d = Pipeline.submit_wire_batch p wires @ Pipeline.flush p in
    let _, _, final = Pipeline.lcs p in
    check "no offload stats" true (Pipeline.offload p = None);
    Pipeline.shutdown p;
    (d, final)
  in
  let sd, sfinal = run None in
  let pd, pfinal = run (Some (Runtime.pipelined ~domains:2)) in
  same_decisions ~name:"pipe:2" pd sd;
  check "pipe:2: final state physically identical" true
    (Tree.physically_equal pfinal sfinal);
  (match Runtime.pipelined ~domains:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "pipelined ~domains:0 accepted");
  let par = Runtime.Parallel { domains = 2 } in
  match Pipeline.create ~runtime:par ~genesis () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Pipeline.create accepted Runtime.Parallel"

let () =
  Alcotest.run "runtime"
    [
      (* The two paths compared are in-memory [submit] and wire batches
         at every slab. *)
      ( "cross-backend determinism",
        [
          Alcotest.test_case "paper config (t=5 d=10 g=2)" `Quick
            test_paper_config;
          Alcotest.test_case "small distance" `Quick test_small_distance;
          Alcotest.test_case "big groups" `Quick test_big_groups;
          Alcotest.test_case "group at the window bound" `Quick
            test_group_at_window_bound;
          Alcotest.test_case "premeld off" `Quick test_premeld_off;
          QCheck_alcotest.to_alcotest prop_wire_sweep;
        ] );
      ( "wire batches",
        [
          Alcotest.test_case "corrupt member mid-batch" `Quick
            test_corrupt_mid_batch;
          Alcotest.test_case "invalid stream: one error at any slab" `Quick
            test_invalid_stream_same_error;
          Alcotest.test_case "chained stream = wire-fed generator" `Quick
            test_chained_stream;
        ] );
      (* Only the frozen descriptor is left of the pipelined backend. *)
      ( "pipelined backend",
        [
          Alcotest.test_case "slab {max_int,17,1} sweep" `Quick
            test_pipelined_slab_sweep;
        ] );
      ( "clock and descriptors",
        [
          Alcotest.test_case "monotonic clock" `Quick test_clock_monotonic;
          Alcotest.test_case "frozen runtime surface" `Quick
            test_frozen_runtime_surface;
        ] );
    ]
