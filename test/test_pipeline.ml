open Hyder_tree
module Local = Hyder_core.Local
module Server = Hyder_core.Server
module Codec = Hyder_codec.Codec
module Executor = Hyder_core.Executor
module Pipeline = Hyder_core.Pipeline
module Premeld = Hyder_core.Premeld
module Oracle = Hyder_core.Oracle
module Counters = Hyder_core.Counters
module I = Hyder_codec.Intention

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Deterministic workload scripts                                       *)
(* ------------------------------------------------------------------ *)

(* A transaction spec: how far behind the current LCS its snapshot is, and
   what it reads and writes.  Reads are restricted to genesis keys (which
   are never deleted here) so the oracle comparison is exact — meld's
   absent-key and range guards are deliberately conservative and are tested
   separately. *)
type spec = {
  lag : int;
  reads : Key.t list;
  writes : (Key.t * string) list;
  isolation : I.isolation;
}

let genesis_n = 2000

let random_specs ~txns ~seed ~isolation_mix =
  let rng = Hyder_util.Rng.create (Int64.of_int seed) in
  let fresh_key = ref 10_000 in
  List.init txns (fun i ->
      let lag = Hyder_util.Rng.int rng 12 in
      let reads =
        List.init (Hyder_util.Rng.int rng 4) (fun _ ->
            Hyder_util.Rng.int rng genesis_n)
      in
      let writes =
        List.init
          (1 + Hyder_util.Rng.int rng 3)
          (fun _ ->
            if Hyder_util.Rng.int rng 10 = 0 then begin
              incr fresh_key;
              (!fresh_key, Printf.sprintf "ins%d" i)
            end
            else (Hyder_util.Rng.int rng genesis_n, Printf.sprintf "w%d" i))
      in
      let isolation =
        if isolation_mix && Hyder_util.Rng.int rng 3 = 0 then
          I.Snapshot_isolation
        else I.Serializable
      in
      { lag; reads; writes; isolation })

(* Replay a script against a pipeline config; returns (decisions sorted by
   seq, final state, oracle inputs, pipeline). *)
let replay ?(config = Pipeline.plain) specs =
  let genesis = Helpers.genesis genesis_n in
  let p = Pipeline.create ~config ~genesis () in
  (* newest first: (seq, pos, tree) snapshots a transaction may run on.
     With group meld the LCS lags behind submissions, so entries can repeat;
     carrying the seq explicitly keeps the oracle aligned. *)
  let history = ref [ (-1, -1, genesis) ] in
  let decisions = ref [] in
  let oracle_inputs = ref [] in
  let next_pos = ref 0 in
  List.iteri
    (fun i spec ->
      let hist = !history in
      let lag = min spec.lag (List.length hist - 1) in
      let snapshot_seq, snapshot_pos, snapshot = List.nth hist lag in
      let e =
        Executor.begin_txn ~snapshot_pos ~snapshot ~server:0 ~txn_seq:i
          ~isolation:spec.isolation ()
      in
      List.iter (fun k -> ignore (Executor.read e k)) spec.reads;
      List.iter (fun (k, v) -> Executor.write e k v) spec.writes;
      (match Executor.finish e with
      | None -> Alcotest.fail "spec with writes produced no draft"
      | Some draft ->
          next_pos := !next_pos + 2;
          let intention = I.assign ~pos:!next_pos draft in
          decisions := Pipeline.submit p intention @ !decisions);
      oracle_inputs :=
        (snapshot_seq, spec.reads, List.map fst spec.writes, spec.isolation)
        :: !oracle_inputs;
      let seq, pos, tree = Pipeline.lcs p in
      history := (seq, pos, tree) :: hist)
    specs;
  decisions := Pipeline.flush p @ !decisions;
  let ds =
    List.sort (fun a b -> Int.compare a.Pipeline.seq b.Pipeline.seq) !decisions
  in
  let _, _, final = Pipeline.lcs p in
  (ds, final, List.rev !oracle_inputs, p)

(* ------------------------------------------------------------------ *)
(* Oracle equivalence                                                   *)
(* ------------------------------------------------------------------ *)

let check_oracle_equiv ~config ~seed ~isolation_mix () =
  let specs = random_specs ~txns:250 ~seed ~isolation_mix in
  let ds, final, oracle_inputs, _ = replay ~config specs in
  check_int "every txn decided" (List.length specs) (List.length ds);
  let oracle = Oracle.create () in
  List.iteri
    (fun i (snapshot_seq, reads, writes, isolation) ->
      let expected =
        Oracle.decide oracle ~snapshot_seq ~isolation ~reads ~writes
      in
      let d = List.nth ds i in
      if d.Pipeline.committed <> expected then
        Alcotest.failf "txn %d: meld says %b, oracle says %b (reason: %s)" i
          d.Pipeline.committed expected
          (match d.Pipeline.reason with
          | Some r -> Hyder_core.Meld.abort_reason_to_string r
          | None -> "none"))
    oracle_inputs;
  (* Final state must equal the committed writes replayed in order. *)
  let model = Hashtbl.create 512 in
  for k = 0 to genesis_n - 1 do
    Hashtbl.replace model k ("v" ^ string_of_int k)
  done;
  List.iteri
    (fun i spec ->
      if (List.nth ds i).Pipeline.committed then
        List.iter (fun (k, v) -> Hashtbl.replace model k v) spec.writes)
    specs;
  Hashtbl.iter
    (fun k v ->
      Alcotest.(check string)
        (Printf.sprintf "final key %d" k)
        v
        (Helpers.value_exn (Tree.lookup final k)))
    model;
  check_int "final live size" (Hashtbl.length model) (Tree.live_size final)

let test_oracle_plain () =
  check_oracle_equiv ~config:Pipeline.plain ~seed:11 ~isolation_mix:false ();
  check_oracle_equiv ~config:Pipeline.plain ~seed:12 ~isolation_mix:true ()

let test_oracle_premeld () =
  check_oracle_equiv ~config:Pipeline.with_premeld ~seed:21
    ~isolation_mix:false ();
  check_oracle_equiv ~config:Pipeline.with_premeld ~seed:22
    ~isolation_mix:true ()

let test_oracle_premeld_small_distance () =
  check_oracle_equiv
    ~config:
      {
        Pipeline.premeld = Some { Premeld.threads = 2; distance = 1 };
        group_size = 1;
      }
    ~seed:31 ~isolation_mix:true ()

(* ------------------------------------------------------------------ *)
(* Cross-configuration equivalence                                      *)
(* ------------------------------------------------------------------ *)

let test_premeld_preserves_decisions () =
  let specs = random_specs ~txns:300 ~seed:41 ~isolation_mix:true in
  let ds_plain, final_plain, _, _ = replay ~config:Pipeline.plain specs in
  let ds_pre, final_pre, _, _ = replay ~config:Pipeline.with_premeld specs in
  List.iter2
    (fun a b ->
      if a.Pipeline.committed <> b.Pipeline.committed then
        Alcotest.failf "txn seq %d: plain=%b premeld=%b" a.Pipeline.seq
          a.Pipeline.committed b.Pipeline.committed)
    ds_plain ds_pre;
  Alcotest.check Helpers.alist_testable "same logical state"
    (Tree.to_alist final_plain) (Tree.to_alist final_pre)

let test_same_config_physical_determinism () =
  let specs = random_specs ~txns:200 ~seed:51 ~isolation_mix:true in
  List.iter
    (fun config ->
      let _, a, _, _ = replay ~config specs in
      let _, b, _, _ = replay ~config specs in
      check "physically identical states" true (Tree.physically_equal a b))
    [
      Pipeline.plain;
      Pipeline.with_premeld;
      Pipeline.with_group_meld;
      Pipeline.with_both;
    ]

(* Exact reference model of group meld over point operations: pairs decide
   together; a later member whose validated set intersects its partner's
   writes dies alone at group meld (Figure 8); otherwise a conflict by
   either survivor against committed history aborts the whole group. *)
let group_oracle_decisions specs oracle_inputs =
  let last_writer = Hashtbl.create 512 in
  let n = List.length specs in
  let specs = Array.of_list specs in
  let inputs = Array.of_list oracle_inputs in
  let decisions = Array.make n false in
  let validated i =
    let snapshot_seq, reads, writes, isolation = inputs.(i) in
    ignore snapshot_seq;
    match isolation with
    | I.Serializable -> List.rev_append reads writes
    | I.Snapshot_isolation | I.Read_committed -> writes
  in
  let conflicts_with_history i =
    let snapshot_seq, _, _, _ = inputs.(i) in
    List.exists
      (fun k ->
        match Hashtbl.find_opt last_writer k with
        | Some w -> w > snapshot_seq
        | None -> false)
      (validated i)
  in
  let commit i =
    decisions.(i) <- true;
    List.iter (fun (k, _) -> Hashtbl.replace last_writer k i) specs.(i).writes
  in
  let rec go i =
    if i >= n then ()
    else if i + 1 >= n then begin
      (* trailing singleton (flush) *)
      if not (conflicts_with_history i) then commit i;
      go (i + 1)
    end
    else begin
      let w1 = List.map fst specs.(i).writes in
      let gm_kill =
        List.exists (fun k -> List.mem k w1) (validated (i + 1))
      in
      let survivors = if gm_kill then [ i ] else [ i; i + 1 ] in
      if not (List.exists conflicts_with_history survivors) then
        List.iter commit survivors;
      go (i + 2)
    end
  in
  go 0;
  decisions

let test_group_meld_matches_fate_sharing_oracle () =
  let specs = random_specs ~txns:300 ~seed:61 ~isolation_mix:false in
  let ds_grp, final_grp, oracle_inputs, _ =
    replay ~config:Pipeline.with_group_meld specs
  in
  check_int "every txn decided" (List.length specs) (List.length ds_grp);
  let expected = group_oracle_decisions specs oracle_inputs in
  List.iteri
    (fun i d ->
      if d.Pipeline.committed <> expected.(i) then
        Alcotest.failf "txn seq %d: group meld=%b, fate-sharing oracle=%b" i
          d.Pipeline.committed expected.(i))
    ds_grp;
  (* State must reflect exactly the group-meld commit set. *)
  let model = Hashtbl.create 512 in
  for k = 0 to genesis_n - 1 do
    Hashtbl.replace model k ("v" ^ string_of_int k)
  done;
  List.iteri
    (fun i spec ->
      if (List.nth ds_grp i).Pipeline.committed then
        List.iter (fun (k, v) -> Hashtbl.replace model k v) spec.writes)
    specs;
  Hashtbl.iter
    (fun k v ->
      Alcotest.(check string)
        (Printf.sprintf "group state key %d" k)
        v
        (Helpers.value_exn (Tree.lookup final_grp k)))
    model

(* ------------------------------------------------------------------ *)
(* Group meld corner cases                                              *)
(* ------------------------------------------------------------------ *)

let group_harness () =
  Local.create ~config:Pipeline.with_group_meld
    ~genesis:(Helpers.genesis ~gap:10 100) ()

let test_group_pairs_decide_together () =
  let h = group_harness () in
  let _, ds1 = Local.txn h (fun e -> Executor.write e 10 "a") in
  check_int "first buffered" 0 (List.length ds1);
  let _, ds2 = Local.txn h (fun e -> Executor.write e 20 "b") in
  check_int "pair decided" 2 (List.length ds2);
  List.iter (fun d -> check "committed" true d.Pipeline.committed) ds2

let test_group_figure8_no_fate_sharing () =
  (* I1 writes k, I2 (concurrent) writes k: I1 is in I2's conflict zone, so
     group meld aborts I2 alone and I1 survives (Figure 8). *)
  let h = group_harness () in
  let t1 = Helpers.begin_txn h in
  let t2 = Helpers.begin_txn h in
  Executor.write t1 10 "first";
  Executor.write t2 10 "second";
  let ds1 = Helpers.commit h t1 in
  check_int "buffered" 0 (List.length ds1);
  let ds2 = Helpers.commit h t2 in
  check_int "both decided" 2 (List.length ds2);
  (match ds2 with
  | [ d1; d2 ] ->
      check "I1 commits" true d1.Pipeline.committed;
      check "I2 aborts" false d2.Pipeline.committed;
      check "decided at group meld" true
        (d2.Pipeline.decided_at = Pipeline.At_group_meld)
  | _ -> Alcotest.fail "expected two decisions");
  let _, _, lcs = Local.lcs h in
  Alcotest.(check string)
    "first wins" "first"
    (Helpers.value_exn (Tree.lookup lcs 10))

let test_group_fate_sharing_partner_dragged_down () =
  (* A member that conflicts with an earlier *committed* transaction drags
     its innocent group partner down with it (fate sharing). *)
  let h = group_harness () in
  let w = Helpers.begin_txn h in
  let bad = Helpers.begin_txn h in
  let innocent = Helpers.begin_txn h in
  Executor.write w 30 "w";
  Executor.write bad 30 "bad" (* conflicts with w *);
  Executor.write innocent 40 "innocent";
  (* Groups: (w, filler) then (bad, innocent). *)
  ignore (Helpers.commit h w);
  let filler = Helpers.begin_txn h in
  Executor.write filler 50 "filler";
  ignore (Helpers.commit h filler);
  ignore (Helpers.commit h bad);
  let ds = Helpers.commit h innocent in
  check_int "group decided" 2 (List.length ds);
  List.iter
    (fun d ->
      check "fate shared: both abort" false d.Pipeline.committed;
      check "decided at final meld" true
        (d.Pipeline.decided_at = Pipeline.At_final_meld))
    ds;
  let _, _, lcs = Local.lcs h in
  Alcotest.(check string)
    "innocent's write absent" "v40"
    (Helpers.value_exn (Tree.lookup lcs 40));
  Alcotest.(check string)
    "w's write stands" "w"
    (Helpers.value_exn (Tree.lookup lcs 30))

(* One group of three under t=1 d=2, each member decided by a different
   stage: member 1 dies at premeld (its designated input state, seq - 3,
   holds an earlier write to its key), member 3 conflicts with member 2
   inside the group and dies at group meld, and member 2 commits at final
   meld.  Decisions come out in seq order, and every member's flight
   record closes exactly once, with its own deciding stage. *)
let test_group_mixed_fates () =
  let config =
    {
      Pipeline.premeld = Some { Premeld.threads = 1; distance = 2 };
      group_size = 3;
    }
  in
  let genesis = Helpers.genesis 100 in
  let path = Filename.temp_file "mixed_fates" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out path in
  let flight = Hyder_obs.Flight.create ~sink:oc () in
  let p = Pipeline.create ~config ~flight ~genesis () in
  let submit ~pos ~snapshot:(snapshot_pos, snapshot) key value =
    let e =
      Executor.begin_txn ~snapshot_pos ~snapshot ~server:0 ~txn_seq:pos
        ~isolation:I.Serializable ()
    in
    Executor.write e key value;
    match Executor.finish e with
    | None -> Alcotest.fail "no draft"
    | Some draft -> Pipeline.submit p (I.assign ~pos draft)
  in
  let genesis_snap = (-1, genesis) in
  (* group 0: three commits, the first writing key 1 *)
  ignore (submit ~pos:0 ~snapshot:genesis_snap 1 "first");
  ignore (submit ~pos:1 ~snapshot:genesis_snap 2 "x");
  check_int "group 0 decided" 3
    (List.length (submit ~pos:2 ~snapshot:genesis_snap 3 "y"));
  let _, lcs_pos, lcs = Pipeline.lcs p in
  (* group 1: member 1 rewrites key 1 on genesis, premelded against
     state 0 *)
  check_int "member 1 waits" 0
    (List.length (submit ~pos:3 ~snapshot:genesis_snap 1 "stale"));
  check_int "member 2 waits" 0
    (List.length (submit ~pos:4 ~snapshot:(lcs_pos, lcs) 50 "kept"));
  let ds = submit ~pos:5 ~snapshot:(lcs_pos, lcs) 50 "lost" in
  let fate (d : Pipeline.decision) =
    (d.Pipeline.seq, d.Pipeline.committed, d.Pipeline.decided_at)
  in
  check "seq order, one fate per stage" true
    (List.map fate ds
    = [
        (3, false, Pipeline.At_premeld);
        (4, true, Pipeline.At_final_meld);
        (5, false, Pipeline.At_group_meld);
      ]);
  check "premeld ran" true
    ((Counters.premeld_total (Pipeline.counters p)).Counters.intentions > 0);
  let _, _, lcs = Pipeline.lcs p in
  Alcotest.(check string)
    "member 2's write stands" "kept"
    (Helpers.value_exn (Tree.lookup lcs 50));
  Alcotest.(check string)
    "member 1's write absent" "first"
    (Helpers.value_exn (Tree.lookup lcs 1));
  check_int "every record closed" 6 (Hyder_obs.Flight.completed flight);
  check_int "none left open" 0 (Hyder_obs.Flight.in_flight flight);
  close_out oc;
  let closed =
    List.filter_map
      (fun (t : Hyder_obs.Analyze.txn) ->
        if t.Hyder_obs.Analyze.pos >= 3 then
          Some
            ( t.Hyder_obs.Analyze.pos,
              t.Hyder_obs.Analyze.committed,
              t.Hyder_obs.Analyze.decided_at )
        else None)
      (Hyder_obs.Analyze.load_file path)
  in
  check "one sink line per member, with its stage" true
    (closed
    = [
        (3, false, "premeld");
        (4, true, "final_meld");
        (5, false, "group_meld");
      ])

(* ------------------------------------------------------------------ *)
(* Premeld mechanics                                                    *)
(* ------------------------------------------------------------------ *)

let test_premeld_actually_runs_and_helps () =
  let specs = random_specs ~txns:500 ~seed:71 ~isolation_mix:false in
  (* Large lags so premeld has a window to shrink. *)
  let specs = List.map (fun s -> { s with lag = 200 + s.lag }) specs in
  let config =
    {
      Pipeline.premeld = Some { Premeld.threads = 5; distance = 2 };
      group_size = 1;
    }
  in
  let _, _, _, p_pre = replay ~config specs in
  let _, _, _, p_plain = replay ~config:Pipeline.plain specs in
  let c_pre = Pipeline.counters p_pre in
  let c_plain = Pipeline.counters p_plain in
  check "premeld processed intentions" true
    ((Counters.premeld_total c_pre).Counters.intentions > 100);
  let fm_pre = Hyder_util.Stats.Summary.mean c_pre.Counters.fm_nodes_per_txn in
  let fm_plain =
    Hyder_util.Stats.Summary.mean c_plain.Counters.fm_nodes_per_txn
  in
  check
    (Printf.sprintf "premeld reduces final meld work (%.1f vs %.1f)" fm_pre
       fm_plain)
    true
    (fm_pre < fm_plain *. 0.75);
  (* Conflict zone observed by final meld shrinks dramatically. *)
  let cz_pre = Hyder_util.Stats.Summary.mean c_pre.Counters.conflict_zone in
  let cz_plain = Hyder_util.Stats.Summary.mean c_plain.Counters.conflict_zone in
  check
    (Printf.sprintf "conflict zone shrinks (%.1f vs %.1f)" cz_pre cz_plain)
    true
    (cz_pre < cz_plain /. 4.0)

let test_premeld_index_arithmetic () =
  let c = { Premeld.threads = 5; distance = 10 } in
  check_int "thread of seq 0" 1 (Premeld.thread_for c ~seq:0);
  check_int "thread of seq 4" 5 (Premeld.thread_for c ~seq:4);
  check_int "thread of seq 5" 1 (Premeld.thread_for c ~seq:5);
  check_int "input of seq 60" 9 (Premeld.input_seq c ~seq:60);
  check_int "input of seq 51" 0 (Premeld.input_seq c ~seq:51)

(* ------------------------------------------------------------------ *)
(* Codec-path equivalence                                               *)
(* ------------------------------------------------------------------ *)

(* The direct path ([Local]: drafts assigned their log identity) and the
   wire path ([Server] fed its own blocks: encode, split, reassemble,
   decode) make the same decisions and reach the same state. *)
let test_codec_path_equivalence () =
  let genesis = Helpers.genesis ~gap:10 100 in
  let run ~lcs ~submit =
    let rng = Hyder_util.Rng.create 99L in
    let begin_txn () =
      let _, pos, tree = lcs () in
      incr Helpers.txn_counter;
      Executor.begin_txn ~snapshot_pos:pos ~snapshot:tree ~server:0
        ~txn_seq:!Helpers.txn_counter ~isolation:I.Serializable ()
    in
    let commit1 e =
      match submit (Option.get (Executor.finish e)) with
      | [ d ] -> d.Pipeline.committed
      | ds -> Alcotest.failf "expected one decision, got %d" (List.length ds)
    in
    let outcomes = ref [] in
    for _ = 1 to 100 do
      let t1 = begin_txn () in
      let t2 = begin_txn () in
      Executor.write t1 (10 * Hyder_util.Rng.int rng 120) "x";
      ignore (Executor.read t2 (10 * Hyder_util.Rng.int rng 100));
      Executor.write t2 (10 * Hyder_util.Rng.int rng 120) "y";
      outcomes := commit1 t1 :: !outcomes;
      outcomes := commit1 t2 :: !outcomes
    done;
    let _, _, lcs = lcs () in
    (!outcomes, Tree.to_alist lcs)
  in
  Helpers.txn_counter := 1000;
  let local = Local.create ~genesis () in
  let d1, s1 =
    run ~lcs:(fun () -> Local.lcs local) ~submit:(Local.submit_draft local)
  in
  Helpers.txn_counter := 1000;
  (* small blocks, so some intentions span several *)
  let block_size = 256 in
  let server = Server.create ~block_size ~server_id:0 ~genesis () in
  let multi_block = ref 0 in
  let submit (draft : I.draft) =
    let blocks =
      Codec.Blocks.split ~block_size ~server:0 ~txn_seq:draft.I.txn_seq
        (Codec.encode draft)
    in
    if List.length blocks > 1 then incr multi_block;
    List.concat_map
      (fun block ->
        match
          Server.observe_block server ~pos:(Server.next_pos server) block
        with
        | Server.Accepted ds -> ds
        | Server.Duplicate | Server.Rejected ->
            Alcotest.fail "own block refused")
      blocks
  in
  let d2, s2 = run ~lcs:(fun () -> Server.lcs server) ~submit in
  check "some intentions span several blocks" true (!multi_block > 0);
  check "same decisions" true (d1 = d2);
  Alcotest.check Helpers.alist_testable "same state" s1 s2

(* A rejected intention is not counted: [Pipeline.decode] on any strict
   prefix of a valid encoding raises [Corrupt] and leaves every counter
   as it was. *)
let test_corrupt_decode_counts_nothing () =
  let genesis = Helpers.genesis ~gap:10 100 in
  let p = Pipeline.create ~genesis () in
  let e =
    Executor.begin_txn ~snapshot_pos:(-1) ~snapshot:genesis ~server:0
      ~txn_seq:0 ~isolation:I.Serializable ()
  in
  ignore (Executor.read e 30);
  Executor.write e 50 "x";
  let src =
    match Executor.finish e with
    | Some d -> Hyder_codec.Codec.encode d
    | None -> assert false
  in
  ignore (Pipeline.decode p ~pos:0 src);
  let before = Counters.copy (Pipeline.counters p) in
  for len = 0 to String.length src - 1 do
    match Pipeline.decode p ~pos:1 (String.sub src 0 len) with
    | exception Hyder_codec.Codec.Corrupt _ -> ()
    | _ -> Alcotest.failf "prefix of %d bytes accepted" len
  done;
  check "counters unchanged" true (Pipeline.counters p = before)

let () =
  Alcotest.run "pipeline"
    [
      ( "oracle",
        [
          Alcotest.test_case "plain matches oracle" `Quick test_oracle_plain;
          Alcotest.test_case "premeld matches oracle" `Quick
            test_oracle_premeld;
          Alcotest.test_case "small premeld distance" `Quick
            test_oracle_premeld_small_distance;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "premeld preserves decisions" `Quick
            test_premeld_preserves_decisions;
          Alcotest.test_case "physical determinism" `Quick
            test_same_config_physical_determinism;
          Alcotest.test_case "group meld fate-sharing oracle" `Quick
            test_group_meld_matches_fate_sharing_oracle;
        ] );
      ( "group meld",
        [
          Alcotest.test_case "pairs decide together" `Quick
            test_group_pairs_decide_together;
          Alcotest.test_case "figure 8" `Quick
            test_group_figure8_no_fate_sharing;
          Alcotest.test_case "partner dragged down" `Quick
            test_group_fate_sharing_partner_dragged_down;
          Alcotest.test_case "mixed fates in one group" `Quick
            test_group_mixed_fates;
        ] );
      ( "premeld",
        [
          Alcotest.test_case "premeld shrinks final meld" `Quick
            test_premeld_actually_runs_and_helps;
          Alcotest.test_case "index arithmetic" `Quick
            test_premeld_index_arithmetic;
        ] );
      ( "codec path",
        [
          Alcotest.test_case "equivalent to direct path" `Quick
            test_codec_path_equivalence;
          Alcotest.test_case "corrupt decode counts nothing" `Quick
            test_corrupt_decode_counts_nothing;
        ] );
    ]
