open Hyder_tree
module State_store = Hyder_core.State_store
module Executor = Hyder_core.Executor
module Oracle = Hyder_core.Oracle
module I = Hyder_codec.Intention
module Codec = Hyder_codec.Codec
module Pipeline = Hyder_core.Pipeline
module Ycsb = Hyder_workload.Ycsb

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- state store --------------------------------------------------------- *)

let mini_state n =
  Tree.of_sorted_array (Array.init n (fun k -> (k, Helpers.payload k)))

let test_state_store_basics () =
  let genesis = mini_state 3 in
  let s = State_store.create ~genesis () in
  let seq, pos, tree = State_store.latest s in
  check_int "genesis seq" (-1) seq;
  check_int "genesis pos" (-1) pos;
  check "genesis tree" true (tree == genesis);
  let s0 = mini_state 4 and s1 = mini_state 5 in
  State_store.record s ~seq:0 ~pos:2 s0;
  State_store.record s ~seq:1 ~pos:7 s1;
  let seq, pos, tree = State_store.latest s in
  check_int "latest seq" 1 seq;
  check_int "latest pos" 7 pos;
  check "latest tree" true (tree == s1);
  let is_phys what opt t =
    check what true (match opt with Some x -> x == t | None -> false)
  in
  is_phys "by_seq genesis" (State_store.by_seq s (-1)) genesis;
  is_phys "by_seq 0" (State_store.by_seq s 0) s0;
  check "by_seq missing" true
    (match State_store.by_seq s 5 with None -> true | Some _ -> false)

let test_state_store_by_pos () =
  let genesis = mini_state 3 in
  let s = State_store.create ~genesis () in
  State_store.record s ~seq:0 ~pos:2 (mini_state 4);
  State_store.record s ~seq:1 ~pos:7 (mini_state 5);
  State_store.record s ~seq:2 ~pos:8 (mini_state 6);
  (* position between entries resolves to the newest at-or-before *)
  let is_phys what opt t =
    check what true (match opt with Some x -> x == t | None -> false)
  in
  is_phys "pos -1 genesis" (State_store.by_pos s (-1)) genesis;
  is_phys "pos 1 -> genesis (nothing recorded yet)" (State_store.by_pos s 1)
    genesis;
  check_int "seq_of_pos 7" 1 (State_store.seq_of_pos s 7);
  check_int "seq_of_pos 7.5-ish" 1 (State_store.seq_of_pos s 7);
  check_int "seq_of_pos big" 2 (State_store.seq_of_pos s 100);
  check "by_pos exact" true
    (match State_store.by_pos s 8 with
    | Some t -> Tree.live_size t = 6
    | None -> false)

let test_state_store_ordering_enforced () =
  let s = State_store.create ~genesis:(mini_state 1) () in
  State_store.record s ~seq:0 ~pos:5 (mini_state 2);
  (try
     State_store.record s ~seq:2 ~pos:9 (mini_state 2);
     Alcotest.fail "expected seq gap rejection"
   with Invalid_argument _ -> ());
  try
    State_store.record s ~seq:1 ~pos:5 (mini_state 2);
    Alcotest.fail "expected pos regression rejection"
  with Invalid_argument _ -> ()

let test_state_store_prune () =
  let s = State_store.create ~genesis:(mini_state 1) () in
  for i = 0 to 99 do
    State_store.record s ~seq:i ~pos:(2 * (i + 1)) (mini_state (i + 2))
  done;
  check_int "retained" 100 (State_store.retained s);
  State_store.prune s ~keep:10;
  check_int "pruned" 10 (State_store.retained s);
  check "old state gone" true (State_store.by_seq s 10 = None);
  check "recent state kept" true (State_store.by_seq s 95 <> None);
  (* pruned history: positions before the window are unknown, not genesis *)
  check "by_pos before window" true (State_store.by_pos s 50 = None);
  check "genesis pruned with the rest" true (State_store.by_pos s (-1) = None)

(* The store's only reference to its genesis tree, watched weakly. *)
let[@inline never] store_with_watched_genesis weak =
  let genesis = mini_state 8 in
  Weak.set weak 0 (Some genesis);
  State_store.create ~genesis ()

(* Genesis is pruned like any other state once a prune leaves a newer
   one: the store stops pinning it, and both numberings answer [None]. *)
let test_state_store_prune_drops_genesis () =
  let weak = Weak.create 1 in
  let s = store_with_watched_genesis weak in
  for i = 0 to 3 do
    State_store.record s ~seq:i ~pos:(10 * i) (mini_state 2)
  done;
  State_store.prune s ~keep:10;
  Gc.full_major ();
  check "a prune that drops nothing keeps genesis" true
    (Weak.check weak 0 && State_store.by_seq s (-1) <> None);
  State_store.prune s ~keep:2;
  check "by_seq -1 pruned" true (State_store.by_seq s (-1) = None);
  check "by_pos -1 pruned" true (State_store.by_pos s (-1) = None);
  let restored = State_store.restore (State_store.snapshot s) in
  check "restore agrees" true
    (State_store.by_seq restored (-1) = None
    && State_store.by_pos restored (-1) = None);
  Gc.full_major ();
  check "genesis tree collected" false (Weak.check weak 0);
  State_store.prune s ~keep:0;
  check_int "the newest state stays" 1 (State_store.retained s);
  let seq, pos, _ = State_store.latest s in
  check "latest is the newest state" true (seq = 3 && pos = 30)

(* Once genesis is pruned, an intention that names snapshot -1 fails to
   decode exactly as one naming any other pruned snapshot does. *)
let test_pruned_genesis_decode () =
  let genesis = mini_state 2_000 in
  let p = Pipeline.create ~genesis () in
  let write ~snapshot_pos ~snapshot key =
    let e =
      Executor.begin_txn ~snapshot_pos ~snapshot ~server:0 ~txn_seq:key
        ~isolation:I.Serializable ()
    in
    Executor.write e key "x";
    match Executor.finish e with
    | Some d -> Codec.encode d
    | None -> assert false
  in
  let submit pos =
    let _, snapshot_pos, snapshot = Pipeline.lcs p in
    let src = write ~snapshot_pos ~snapshot (100 * pos) in
    ignore (Pipeline.submit p (Pipeline.decode p ~pos src))
  in
  let on_genesis = write ~snapshot_pos:(-1) ~snapshot:genesis 5 in
  submit 0;
  let _, _, first = Pipeline.lcs p in
  let on_first = write ~snapshot_pos:0 ~snapshot:first 7 in
  for pos = 1 to 3 do
    submit pos
  done;
  (* both decode while their snapshots are retained *)
  ignore (Pipeline.decode p ~pos:4 on_genesis);
  ignore (Pipeline.decode p ~pos:4 on_first);
  Pipeline.prune p ~keep:2;
  let failure src =
    match Pipeline.decode p ~pos:4 src with
    | _ -> "accepted"
    | exception Failure m -> m
  in
  let pruned pos =
    Printf.sprintf
      "State_store: ds stage needs the state at position %d but retention \
       is [-1..-1] — pruned too far for this stage"
      pos
  in
  Alcotest.(check string) "snapshot 0" (pruned 0) (failure on_first);
  Alcotest.(check string) "snapshot -1" (pruned (-1)) (failure on_genesis)

(* Pruning must actually release the evicted states to the GC.  The ring
   buffer's vacated slots used to keep their old [Tree.t] pointers until
   the ring wrapped over them — for a grown ring that is effectively
   forever, and the whole point of pruning (bounding memory) was lost.
   Finalisers on the recorded roots observe collection directly. *)
let test_state_store_prune_releases_states () =
  let s = State_store.create ~genesis:(mini_state 1) () in
  let freed = ref 0 in
  let n = 64 in
  for i = 0 to n - 1 do
    let st = mini_state 4 in
    Gc.finalise (fun _ -> incr freed) st;
    State_store.record s ~seq:i ~pos:i st
  done;
  State_store.prune s ~keep:4;
  check_int "window retained" 4 (State_store.retained s);
  Gc.full_major ();
  Gc.full_major ();
  check_int "every pruned state was collectable" (n - 4) !freed;
  (* the kept window is untouched and still addressable *)
  check "window intact" true (State_store.by_seq s (n - 1) <> None);
  (* growth after a prune compacts into the fresh array; the old array
     (and any stale pointers in it) is dropped wholesale *)
  for i = n to n + 2000 do
    State_store.record s ~seq:i ~pos:i (mini_state 2)
  done;
  Gc.full_major ();
  check_int "no retained-window state was freed" (n - 4) !freed;
  check "entries survive growth" true (State_store.by_seq s n <> None)

let test_state_store_grows_past_initial_capacity () =
  let s = State_store.create ~genesis:(mini_state 1) () in
  for i = 0 to 9_999 do
    State_store.record s ~seq:i ~pos:(i + 1) (mini_state 2)
  done;
  check_int "all retained" 10_000 (State_store.retained s);
  check_int "binary search still right" 5_000 (State_store.seq_of_pos s 5_001)

let test_resolver_finds_snapshot_nodes () =
  let genesis = mini_state 10 in
  let s = State_store.create ~genesis () in
  let resolve = State_store.resolver s in
  (let n = resolve ~snapshot:(-1) ~key:5 ~vn:(Vn.genesis ~idx:0) in
   if Node.is_empty n then Alcotest.fail "expected node"
   else check_int "found key" 5 n.Node.key);
  if not (Node.is_empty (resolve ~snapshot:(-1) ~key:555 ~vn:(Vn.genesis ~idx:0)))
  then Alcotest.fail "expected empty"

(* --- decode contract -------------------------------------------------------- *)

(* A closed-loop YCSB wire stream, recorded by feeding a generator
   pipeline the way a server's callers do: slabs of [slab] transactions
   execute against the LCS and are melded only once [in_flight] are
   waiting, so snapshots lag and conflict zones are real. *)
let ycsb_wire_stream ~config ~isolation ~txns =
  let y =
    Ycsb.create ~seed:42L
      {
        Ycsb.default with
        Ycsb.record_count = 2_000;
        payload_size = 16;
        update_fraction = 0.5;
        distribution = Ycsb.Hotspot 0.2;
        isolation;
      }
  in
  let genesis = Ycsb.genesis y in
  let gen = Pipeline.create ~config ~genesis () in
  let slab = 16 and in_flight = 48 in
  let wires = Array.make txns (0, "") in
  let submitted = ref 0 in
  let submit_upto n =
    ignore
      (Pipeline.submit_wire_batch gen
         (Array.to_list (Array.sub wires !submitted (n - !submitted))));
    submitted := n
  in
  let next = ref 0 in
  while !next < txns do
    let _, snapshot_pos, snapshot = Pipeline.lcs gen in
    for _ = 1 to min slab (txns - !next) do
      let e =
        Executor.begin_txn ~snapshot_pos ~snapshot ~server:0 ~txn_seq:!next
          ~isolation ()
      in
      Ycsb.apply (Ycsb.next_write_txn y) e;
      (match Executor.finish e with
      | Some d -> wires.(!next) <- (!next, Codec.encode d)
      | None -> Alcotest.fail "read-only YCSB write transaction");
      incr next
    done;
    if !next - !submitted > in_flight then submit_upto (!submitted + slab)
  done;
  (genesis, Array.to_list wires)

let decision_key (d : Pipeline.decision) =
  (d.Pipeline.seq, d.Pipeline.pos, d.Pipeline.committed, d.Pipeline.reason,
   d.Pipeline.decided_at)

let final_of p ds =
  let ds = ds @ Pipeline.flush p in
  let _, _, tree = Pipeline.lcs p in
  (List.map decision_key ds, Tree.digest tree)

(* However a stream is cut into [submit_wire_batch] calls, the sequential
   backend melds each intention right after its decode, so decisions and
   the final tree equal one-at-a-time [decode] + [submit]. *)
let check_split_invariance ~config ~isolation () =
  let genesis, wires = ycsb_wire_stream ~config ~isolation ~txns:400 in
  let one_at_a_time =
    let p = Pipeline.create ~config ~genesis () in
    final_of p
      (List.concat_map
         (fun (pos, src) -> Pipeline.submit p (Pipeline.decode p ~pos src))
         wires)
  in
  let ds, _ = one_at_a_time in
  check "some commit" true (List.exists (fun (_, _, c, _, _) -> c) ds);
  check "some abort" true (List.exists (fun (_, _, c, _, _) -> not c) ds);
  List.iter
    (fun slab ->
      let p = Pipeline.create ~config ~genesis () in
      let rec go acc = function
        | [] -> acc
        | l ->
            let batch = List.filteri (fun i _ -> i < slab) l in
            let rest = List.filteri (fun i _ -> i >= slab) l in
            go (List.rev_append (Pipeline.submit_wire_batch p batch) acc) rest
      in
      let ds, digest = final_of p (List.rev (go [] wires)) in
      let name = Printf.sprintf "slab %d" slab in
      check (name ^ ": decisions") true (ds = fst one_at_a_time);
      Alcotest.(check string) (name ^ ": tree digest") (snd one_at_a_time)
        digest)
    [ 1; 7; 64; max_int ]

let test_split_invariance_plain_si () =
  check_split_invariance ~config:Pipeline.plain
    ~isolation:I.Snapshot_isolation ()

let test_split_invariance_both_sr () =
  check_split_invariance ~config:Pipeline.with_both ~isolation:I.Serializable
    ()

(* References resolve against the intention's snapshot state alone.  A
   forged intention that claims the genesis snapshot but references nodes
   a just-decoded intention logged must be rejected, even though those
   nodes are alive in the LCS. *)
let test_forged_reference_rejected () =
  let genesis = mini_state 2_000 in
  let p = Pipeline.create ~genesis () in
  let run ~snapshot_pos ~snapshot key =
    let e =
      Executor.begin_txn ~snapshot_pos ~snapshot ~server:0 ~txn_seq:key
        ~isolation:I.Serializable ()
    in
    Executor.write e key "x";
    match Executor.finish e with
    | Some d -> Codec.encode d
    | None -> assert false
  in
  let x = Pipeline.decode p ~pos:0 (run ~snapshot_pos:(-1) ~snapshot:genesis 0) in
  (match Pipeline.submit p x with
  | [ d ] -> check "x committed" true d.Pipeline.committed
  | _ -> Alcotest.fail "expected one decision");
  let _, xpos, lcs = Pipeline.lcs p in
  check_int "lcs is x's state" 0 xpos;
  (* x's path from the root to key 0 is logged at position 0, and a write
     to the largest key diverges from it at the root, so the forged
     intention references x's node on the left spine *)
  check "root is on neither path" true
    (lcs.Node.key <> 0 && lcs.Node.key <> 1_999);
  check "left child logged by x" true
    (Vn.intention_pos (Node.vn lcs.Node.left) = Some 0);
  let forged = run ~snapshot_pos:(-1) ~snapshot:lcs 1_999 in
  (match Pipeline.decode p ~pos:1 forged with
  | exception Codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "forged reference accepted");
  (* the same transaction naming its real snapshot decodes *)
  ignore (Pipeline.decode p ~pos:1 (run ~snapshot_pos:0 ~snapshot:lcs 1_999))

(* --- executor isolation paths --------------------------------------------- *)

let test_executor_read_committed_sees_fresh () =
  let snap = mini_state 10 in
  let current = ref snap in
  let e =
    Executor.begin_txn
      ~current:(fun () -> !current)
      ~snapshot_pos:(-1) ~snapshot:snap ~server:0 ~txn_seq:0
      ~isolation:I.Read_committed ()
  in
  check "initial" true
    (Executor.read e 3 = Some (Helpers.payload 3));
  (* another transaction commits meanwhile *)
  let fresh = ref 0 in
  let upd =
    Tree.upsert snap ~owner:Node.state_owner
      ~fresh:(fun () -> incr fresh; 1000 + !fresh)
      3 (Payload.value "fresh")
  in
  current := upd;
  check "read-committed sees it" true
    (Executor.read e 3 = Some (Payload.value "fresh"));
  (* but own writes still win *)
  Executor.write e 3 "mine";
  check "own write wins" true (Executor.read e 3 = Some (Payload.value "mine"))

let test_executor_si_records_no_deps () =
  let snap = mini_state 10 in
  let e =
    Executor.begin_txn ~snapshot_pos:(-1) ~snapshot:snap ~server:0 ~txn_seq:0
      ~isolation:I.Snapshot_isolation ()
  in
  ignore (Executor.read e 1);
  ignore (Executor.read_range e ~lo:2 ~hi:5);
  Executor.write e 7 "w";
  let draft = Option.get (Executor.finish e) in
  let deps = ref 0 in
  Tree.iter draft.I.root (fun n ->
      if Node.owner n = I.draft_owner
         && (Node.depends_on_content n || Node.depends_on_structure n)
      then incr deps);
  check_int "no dependency metadata under SI" 0 !deps

let test_executor_finish_read_only () =
  let e =
    Executor.begin_txn ~snapshot_pos:(-1) ~snapshot:(mini_state 5) ~server:0
      ~txn_seq:0 ~isolation:I.Serializable ()
  in
  ignore (Executor.read e 1);
  check "read-only yields no draft" true (Executor.finish e = None);
  Alcotest.check_raises "use after finish"
    (Invalid_argument "Executor.read: finished") (fun () ->
      ignore (Executor.read e 1))

let test_executor_introspection () =
  let e =
    Executor.begin_txn ~snapshot_pos:(-1) ~snapshot:(mini_state 10) ~server:0
      ~txn_seq:0 ~isolation:I.Serializable ()
  in
  ignore (Executor.read e 1);
  ignore (Executor.read e 2);
  Executor.write e 3 "x";
  Executor.delete e 4;
  check "reads tracked" true (List.sort compare (Executor.reads e) = [ 1; 2 ]);
  check "writes tracked" true (List.sort compare (Executor.writes e) = [ 3; 4 ]);
  check_int "snapshot pos" (-1) (Executor.snapshot_pos e)

(* --- checkpoint ------------------------------------------------------------ *)

let test_checkpoint_compacts_tombstones () =
  let module Local = Hyder_core.Local in
  let h = Local.create ~genesis:(mini_state 100) () in
  ignore (Local.txn h (fun e -> Executor.delete e 10));
  ignore (Local.txn h (fun e -> Executor.delete e 20));
  ignore (Local.txn h (fun e -> Executor.write e 30 "fresh"));
  let _, _, state = Local.lcs h in
  let compacted, stats = Hyder_core.Checkpoint.compact ~pos:1_000_000 state in
  check_int "tombstones dropped" 2 stats.Hyder_core.Checkpoint.tombstones_dropped;
  check_int "live nodes" 98 stats.Hyder_core.Checkpoint.live_nodes;
  check_int "structure shrinks" 98 (Tree.size compacted);
  (match Tree.validate compacted with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid checkpoint: %s" e);
  check "same logical content" true
    (Tree.to_alist compacted = Tree.to_alist state);
  (* content versions preserved so later conflict checks still work *)
  let before = Option.get (Tree.find state 30) in
  let after = Option.get (Tree.find compacted 30) in
  check "cv preserved" true (Vn.equal (Node.cv before) (Node.cv after))

let test_checkpoint_deterministic () =
  let module Local = Hyder_core.Local in
  let h = Local.create ~genesis:(mini_state 50) () in
  ignore (Local.txn h (fun e -> Executor.delete e 5));
  let _, _, state = Local.lcs h in
  let a, _ = Hyder_core.Checkpoint.compact ~pos:777 state in
  let b, _ = Hyder_core.Checkpoint.compact ~pos:777 state in
  check "physically identical" true (Tree.physically_equal a b)

let test_checkpoint_usable_as_genesis () =
  let module Local = Hyder_core.Local in
  let h = Local.create ~genesis:(mini_state 50) () in
  ignore (Local.txn h (fun e -> Executor.delete e 5));
  let _, _, state = Local.lcs h in
  let compacted, _ = Hyder_core.Checkpoint.compact ~pos:777 state in
  let h2 = Local.create ~genesis:compacted () in
  let v, ds = Local.txn h2 (fun e -> Executor.write e 6 "after-checkpoint") in
  ignore v;
  check "txns run on checkpointed state" true
    (List.for_all (fun d -> d.Hyder_core.Pipeline.committed) ds)

(* Recovery correctness hinges on composition: melding a log suffix onto a
   compacted checkpoint must reach the same decisions and the same logical
   state as melding it onto the original (uncompacted) tree.  The compacted
   tree is physically rebuilt — different shape, different node objects —
   so graft fast paths may differ; decisions, live content and content
   versions must not. *)
let test_meld_after_compaction_matches_original () =
  let module Local = Hyder_core.Local in
  let module Checkpoint = Hyder_core.Checkpoint in
  let module Pipeline = Hyder_core.Pipeline in
  (* a history that leaves tombstones for compaction to drop *)
  let h = Local.create ~genesis:(mini_state 80) () in
  for k = 0 to 9 do
    ignore (Local.txn h (fun e -> Executor.delete e (k * 7)))
  done;
  ignore (Local.txn h (fun e -> Executor.write e 3 "latest"));
  let _, pos, state = Local.lcs h in
  let compacted, _ = Checkpoint.compact ~pos state in
  (* one suffix of intentions, all executed against the pre-suffix state:
     colliding keys make later members genuinely conflict with earlier
     ones, so the suffix carries both commits and aborts *)
  let intentions =
    List.init 24 (fun i ->
        let e =
          Executor.begin_txn ~snapshot_pos:(-1) ~snapshot:state ~server:0
            ~txn_seq:i ~isolation:I.Serializable ()
        in
        let k = 2 + (i mod 8) in
        ignore (Executor.read e k);
        Executor.write e k (Printf.sprintf "suffix-%d" i);
        if i mod 5 = 0 then Executor.delete e (40 + i);
        match Executor.finish e with
        (* suffix positions follow the history's: every vn already in the
           genesis tree ranks below every suffix intention *)
        | Some draft -> I.assign ~pos:(pos + (2 * (i + 1))) draft
        | None -> Alcotest.fail "suffix txn produced no intention")
  in
  let run genesis =
    let p = Pipeline.create ~genesis () in
    let ds =
      List.concat_map (Pipeline.submit p) intentions @ Pipeline.flush p
    in
    let _, _, tree = Pipeline.lcs p in
    ( List.map
        (fun (d : Pipeline.decision) -> (d.seq, d.pos, d.committed, d.reason))
        ds,
      tree )
  in
  let da, ta = run state in
  let db, tb = run compacted in
  check "identical decisions" true (da = db);
  check "suffix has commits" true
    (List.exists (fun (_, _, c, _) -> c) da);
  check "suffix has conflicts" true
    (List.exists (fun (_, _, c, _) -> not c) da);
  check "logically equal trees" true (Tree.to_alist ta = Tree.to_alist tb);
  List.iter
    (fun (k, _) ->
      let a = Option.get (Tree.find ta k) and b = Option.get (Tree.find tb k) in
      check "content versions equal" true (Vn.equal (Node.cv a) (Node.cv b)))
    (Tree.to_alist ta)

(* --- oracle ---------------------------------------------------------------- *)

let test_oracle_basics () =
  let o = Oracle.create () in
  (* txn 0: writes k1 from genesis snapshot *)
  check "t0 commits" true
    (Oracle.decide o ~snapshot_seq:(-1) ~isolation:I.Serializable ~reads:[]
       ~writes:[ 1 ]);
  (* txn 1: stale snapshot, reads k1 -> conflict *)
  check "stale reader aborts" false
    (Oracle.decide o ~snapshot_seq:(-1) ~isolation:I.Serializable
       ~reads:[ 1 ] ~writes:[ 9 ]);
  (* txn 2: same stale snapshot but SI ignores the read *)
  check "SI reader commits" true
    (Oracle.decide o ~snapshot_seq:(-1) ~isolation:I.Snapshot_isolation
       ~reads:[ 1 ] ~writes:[ 8 ]);
  (* txn 3: fresh snapshot sees everything *)
  check "fresh commits" true
    (Oracle.decide o ~snapshot_seq:2 ~isolation:I.Serializable ~reads:[ 1; 8 ]
       ~writes:[ 1 ]);
  check_int "seq advances per decide" 4 (Oracle.next_seq o);
  (* aborted writes are not installed: reading k9 from genesis is fine *)
  check "aborted write not installed" true
    (Oracle.decide o ~snapshot_seq:(-1) ~isolation:I.Serializable
       ~reads:[ 9 ] ~writes:[ 9 ])

let () =
  Alcotest.run "core units"
    [
      ( "state store",
        [
          Alcotest.test_case "basics" `Quick test_state_store_basics;
          Alcotest.test_case "by_pos" `Quick test_state_store_by_pos;
          Alcotest.test_case "ordering" `Quick
            test_state_store_ordering_enforced;
          Alcotest.test_case "prune" `Quick test_state_store_prune;
          Alcotest.test_case "prune drops genesis" `Quick
            test_state_store_prune_drops_genesis;
          Alcotest.test_case "pruned genesis fails decode" `Quick
            test_pruned_genesis_decode;
          Alcotest.test_case "prune releases states to the GC" `Quick
            test_state_store_prune_releases_states;
          Alcotest.test_case "growth" `Quick
            test_state_store_grows_past_initial_capacity;
          Alcotest.test_case "resolver" `Quick
            test_resolver_finds_snapshot_nodes;
        ] );
      ( "decode contract",
        [
          Alcotest.test_case "split invariance plain SI" `Quick
            test_split_invariance_plain_si;
          Alcotest.test_case "split invariance both SR" `Quick
            test_split_invariance_both_sr;
          Alcotest.test_case "forged reference rejected" `Quick
            test_forged_reference_rejected;
        ] );
      ( "executor",
        [
          Alcotest.test_case "read committed" `Quick
            test_executor_read_committed_sees_fresh;
          Alcotest.test_case "SI records no deps" `Quick
            test_executor_si_records_no_deps;
          Alcotest.test_case "read-only finish" `Quick
            test_executor_finish_read_only;
          Alcotest.test_case "introspection" `Quick
            test_executor_introspection;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "compacts" `Quick
            test_checkpoint_compacts_tombstones;
          Alcotest.test_case "deterministic" `Quick
            test_checkpoint_deterministic;
          Alcotest.test_case "usable as genesis" `Quick
            test_checkpoint_usable_as_genesis;
          Alcotest.test_case "meld suffix onto compacted = original" `Quick
            test_meld_after_compaction_matches_original;
        ] );
      ( "oracle",
        [ Alcotest.test_case "basics" `Quick test_oracle_basics ] );
    ]
