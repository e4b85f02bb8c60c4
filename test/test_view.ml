(* The flyweight view must be indistinguishable from the eager decoder:
   field by field through the accessors, node by node through
   materialization, decision by decision through the pipeline, and
   outcome by outcome on corrupt input.  DESIGN.md §13. *)

open Hyder_tree
module I = Hyder_codec.Intention
module Codec = Hyder_codec.Codec
module View = Hyder_codec.View
module Executor = Hyder_core.Executor
module Pipeline = Hyder_core.Pipeline
module Premeld = Hyder_core.Premeld
module Runtime = Hyder_core.Runtime
module Counters = Hyder_core.Counters
module Rng = Hyder_util.Rng

let check = Alcotest.(check bool)

(* ---- random transactions over a fixed snapshot ----------------------- *)

let genesis_n = 500
let snapshot = Helpers.genesis ~gap:3 genesis_n

let resolve ~snapshot:_ ~key ~vn:_ =
  match Tree.find snapshot key with Some n -> n | None -> Node.empty

type txn = { reads : int list; writes : int list; dels : int list; si : bool }

let txn_gen =
  QCheck2.Gen.(
    let key = int_bound (genesis_n - 1) in
    map
      (fun (reads, writes, dels, si) -> { reads; writes; dels; si })
      (quad
         (list_size (int_range 0 6) key)
         (list_size (int_range 1 10) key)
         (list_size (int_range 0 3) key)
         bool))

(* Wire bytes for a random transaction; [None] when the executor elides
   it (e.g. every write cancelled by a delete of a missing key). *)
let encode_txn t =
  let isolation = if t.si then I.Snapshot_isolation else I.Serializable in
  let e =
    Executor.begin_txn ~snapshot_pos:(-1) ~snapshot ~server:3 ~txn_seq:17
      ~isolation ()
  in
  List.iter (fun k -> ignore (Executor.read e (k * 3))) t.reads;
  List.iter (fun k -> Executor.write e (k * 3) "w") t.writes;
  List.iter (fun k -> Executor.delete e (k * 3)) t.dels;
  match Executor.finish e with
  | Some d -> Some (Codec.encode d)
  | None -> None

let vn_opt_equal a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> Vn.equal x y
  | _ -> false

(* Every accessor agrees with the corresponding field of the eagerly
   decoded node, and materialization reproduces the eager tree. *)
let prop_view_matches_eager =
  QCheck2.Test.make ~name:"view accessors = eager decode, field by field"
    ~count:150 txn_gen (fun t ->
      match encode_txn t with
      | None -> true
      | Some bytes ->
          let eager, nodes = Codec.decode_indexed ~pos:11 ~resolve bytes in
          let li = Codec.decode_lazy ~pos:11 ~peer:snapshot ~resolve bytes in
          let v =
            match li.I.view with
            | Some v -> v
            | None -> QCheck2.Test.fail_report "decode_lazy carried no view"
          in
          let ok idx what b =
            if not b then
              QCheck2.Test.fail_reportf "node %d: %s disagrees" idx what
          in
          if View.node_count v <> eager.I.node_count then
            QCheck2.Test.fail_report "node_count disagrees";
          if
            not
              (li.I.snapshot = eager.I.snapshot
              && li.I.server = eager.I.server
              && li.I.txn_seq = eager.I.txn_seq
              && li.I.isolation = eager.I.isolation
              && li.I.byte_size = eager.I.byte_size)
          then QCheck2.Test.fail_report "header disagrees";
          let kid_agrees idx what c (n : Node.tree) =
            if View.kid_is_empty c then ok idx what (Node.is_empty n)
            else if View.kid_is_inside c then ok idx what (n == nodes.(c))
            else ok idx what (n == View.ref_of v c)
          in
          Array.iteri
            (fun idx (n : Node.node) ->
              ok idx "key" (View.key v idx = n.Node.key);
              ok idx "meta" (View.meta v idx = n.Node.meta);
              ok idx "vn" (Vn.equal (View.vn v idx) n.Node.vn);
              ok idx "cv" (Vn.equal (View.cv v idx) n.Node.cv);
              let sa, sb, ca, cb = View.sources v idx in
              ok idx "sources"
                (sa = n.Node.ssv_a && sb = n.Node.ssv_b && ca = n.Node.scv_a
                && cb = n.Node.scv_b);
              ok idx "payload" (Payload.equal (View.payload v idx) n.Node.payload);
              ok idx "ssv" (vn_opt_equal (View.ssv v idx) (Node.ssv n));
              (* the in-place source comparators mirror the packed ones *)
              ok idx "ssv_equals vn"
                (View.ssv_equals v idx n.Node.vn = Node.ssv_equals n n.Node.vn);
              (match Node.ssv n with
              | Some s -> ok idx "ssv_equals hit" (View.ssv_equals v idx s)
              | None -> ());
              ok idx "scv_equals cv"
                (View.scv_equals v idx n.Node.cv = Node.scv_equals n n.Node.cv);
              (match Node.scv n with
              | Some s -> ok idx "scv_equals hit" (View.scv_equals v idx s)
              | None -> ());
              kid_agrees idx "left child" (View.kid_l v idx) n.Node.left;
              kid_agrees idx "right child" (View.kid_r v idx) n.Node.right)
            nodes;
          Tree.physically_equal (View.materialize_root v) eager.I.root)

(* Every strict prefix of a valid encoding must be rejected with Corrupt
   — never accepted, never any other exception (pool/cursor state stays
   intact because parse fails before a view escapes). *)
let prop_truncation_rejected =
  QCheck2.Test.make ~name:"every truncation raises Corrupt" ~count:40 txn_gen
    (fun t ->
      match encode_txn t with
      | None -> true
      | Some bytes ->
          for len = 0 to String.length bytes - 1 do
            match
              Codec.decode_lazy ~pos:5 ~peer:snapshot ~resolve
                (String.sub bytes 0 len)
            with
            | _ ->
                QCheck2.Test.fail_reportf "prefix of %d/%d bytes accepted" len
                  (String.length bytes)
            | exception Codec.Corrupt _ -> ()
          done;
          true)

(* Differential fuzz: after a single bit flip, lazy and eager must agree
   on the outcome — both reject with Corrupt, or both accept with
   physically identical trees.  (The two decoders may report different
   Corrupt messages first — the view defers reference binding to a
   second pass — but the accept/reject decision must match.) *)
let prop_bit_flip_differential =
  QCheck2.Test.make ~name:"bit flips: lazy and eager agree" ~count:120
    QCheck2.Gen.(pair txn_gen (pair big_nat (int_bound 7)))
    (fun (t, (posn, bit)) ->
      match encode_txn t with
      | None -> true
      | Some bytes ->
          let i = posn mod String.length bytes in
          let b = Bytes.of_string bytes in
          Bytes.set b i
            (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
          let s = Bytes.to_string b in
          let eager_r =
            match Codec.decode ~pos:5 ~resolve s with
            | d -> Some d
            | exception Codec.Corrupt _ -> None
          in
          let lazy_r =
            match Codec.decode_lazy ~pos:5 ~peer:snapshot ~resolve s with
            | d -> Some d
            | exception Codec.Corrupt _ -> None
          in
          match (eager_r, lazy_r) with
          | None, None -> true
          | Some e, Some l ->
              let v =
                match l.I.view with
                | Some v -> v
                | None -> QCheck2.Test.fail_report "no view"
              in
              if Tree.physically_equal e.I.root (View.materialize_root v) then
                true
              else
                QCheck2.Test.fail_reportf
                  "flip at byte %d bit %d: both accepted, trees differ" i bit
          | Some _, None ->
              QCheck2.Test.fail_reportf
                "flip at byte %d bit %d: eager accepted, lazy rejected" i bit
          | None, Some _ ->
              QCheck2.Test.fail_reportf
                "flip at byte %d bit %d: lazy accepted, eager rejected" i bit)

(* ---- exhaustive corruption sweep over fixed intentions --------------- *)

(* [snapshot] with every even key re-stamped with an ephemeral version, as
   final meld leaves them: intentions executed against it carry
   ephemeral source versions and ephemeral references. *)
let rec with_ephemerals (t : Node.tree) =
  if Node.is_empty t then t
  else
    let left = with_ephemerals t.Node.left in
    let right = with_ephemerals t.Node.right in
    let vn =
      if t.Node.key mod 2 = 0 then Vn.ephemeral ~thread:(t.Node.key mod 7) ~seq:t.Node.key
      else t.Node.vn
    in
    Node.make ~key:t.Node.key ~payload:t.Node.payload ~left ~right ~vn ~cv:vn
      ~ssv:None ~scv:None ~altered:false ~depends_on_content:false
      ~depends_on_structure:false ~owner:Node.state_owner

let eph_snapshot = with_ephemerals snapshot

let fixed_intention ~name ~snap ~isolation ~reads ~writes =
  let e =
    Executor.begin_txn ~snapshot_pos:(-1) ~snapshot:snap ~server:3
      ~txn_seq:17 ~isolation ()
  in
  List.iter (fun k -> ignore (Executor.read e (k * 3))) reads;
  List.iter (fun k -> Executor.write e (k * 3) "w") writes;
  match Executor.finish e with
  | Some d -> (name, snap, Codec.encode d)
  | None -> Alcotest.failf "%s: expected a draft" name

let fixed_intentions =
  lazy
    [
      fixed_intention ~name:"SR with refs and elided payloads" ~snap:snapshot
        ~isolation:I.Serializable ~reads:[ 7; 150; 151; 420 ]
        ~writes:[ 9; 300 ];
      fixed_intention ~name:"SI, writes only" ~snap:snapshot
        ~isolation:I.Snapshot_isolation ~reads:[] ~writes:[ 12; 13; 250 ];
      fixed_intention ~name:"ephemeral sources" ~snap:eph_snapshot
        ~isolation:I.Serializable ~reads:[ 2; 64 ] ~writes:[ 4; 98; 301 ];
    ]

let resolver_of snap ~snapshot:_ ~key ~vn:_ =
  match Tree.find snap key with Some n -> n | None -> Node.empty

(* The fixtures carry what their names promise. *)
let test_fixtures_cover () =
  let count (_, snap, bytes) f =
    let li = Codec.decode_lazy ~pos:5 ~peer:snap ~resolve:(resolver_of snap) bytes in
    let v = Option.get li.I.view in
    let n = ref 0 in
    for idx = 0 to View.node_count v - 1 do
      if f v idx then incr n
    done;
    !n
  in
  let has_ref v idx =
    not (View.kid_is_inside (View.kid_l v idx) || View.kid_is_empty (View.kid_l v idx))
    || not
         (View.kid_is_inside (View.kid_r v idx)
         || View.kid_is_empty (View.kid_r v idx))
  in
  let elided v idx =
    let m = View.meta v idx in
    m land Node.Meta.altered = 0 && m land Node.Meta.ssv_present <> 0
  in
  let reads v idx = View.meta v idx land Node.Meta.dep_content <> 0 in
  let ephemeral v idx = View.meta v idx land Node.Meta.ssv_ephemeral <> 0 in
  match Lazy.force fixed_intentions with
  | [ sr; si; eph ] ->
      check "SR has refs" true (count sr has_ref > 0);
      check "SR has elided payloads" true (count sr elided > 0);
      check "SI records no reads" true (count si reads = 0);
      check "ephemeral sources present" true (count eph ephemeral > 0)
  | _ -> assert false

(* Every single-bit flip of every byte: the lazy and eager decoders agree
   on accept or reject, and on the tree when both accept. *)
let test_bit_flip_sweep () =
  List.iter
    (fun (name, snap, bytes) ->
      let resolve = resolver_of snap in
      for i = 0 to String.length bytes - 1 do
        for bit = 0 to 7 do
          let b = Bytes.of_string bytes in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
          let s = Bytes.to_string b in
          let eager =
            match Codec.decode ~pos:5 ~resolve s with
            | d -> Some d.I.root
            | exception Codec.Corrupt _ -> None
          in
          let lazy_ =
            match Codec.decode_lazy ~pos:5 ~peer:snap ~resolve s with
            | { I.view = Some v; _ } -> Some (View.materialize_root v)
            | _ -> Alcotest.failf "%s: decode_lazy carried no view" name
            | exception Codec.Corrupt _ -> None
          in
          match (eager, lazy_) with
          | None, None -> ()
          | Some e, Some l ->
              if not (Tree.physically_equal e l) then
                Alcotest.failf "%s: flip at byte %d bit %d: trees differ" name i
                  bit
          | Some _, None ->
              Alcotest.failf "%s: flip at byte %d bit %d: only eager accepted"
                name i bit
          | None, Some _ ->
              Alcotest.failf "%s: flip at byte %d bit %d: only lazy accepted"
                name i bit
        done
      done)
    (Lazy.force fixed_intentions)

(* Every strict prefix is rejected with Corrupt by both decoders. *)
let test_prefix_sweep () =
  List.iter
    (fun (name, snap, bytes) ->
      let resolve = resolver_of snap in
      for len = 0 to String.length bytes - 1 do
        let s = String.sub bytes 0 len in
        (match Codec.decode ~pos:5 ~resolve s with
        | _ -> Alcotest.failf "%s: eager accepted a %d-byte prefix" name len
        | exception Codec.Corrupt _ -> ());
        match Codec.decode_lazy ~pos:5 ~peer:snap ~resolve s with
        | _ -> Alcotest.failf "%s: lazy accepted a %d-byte prefix" name len
        | exception Codec.Corrupt _ -> ()
      done)
    (Lazy.force fixed_intentions)

(* ---- pipeline bit-identity across backends --------------------------- *)

let same_decision (a : Pipeline.decision) (b : Pipeline.decision) =
  a.Pipeline.seq = b.Pipeline.seq
  && a.Pipeline.pos = b.Pipeline.pos
  && a.Pipeline.committed = b.Pipeline.committed
  && a.Pipeline.reason = b.Pipeline.reason
  && a.Pipeline.decided_at = b.Pipeline.decided_at

(* Record a deterministic wire stream with a sequential generator, then
   replay it on every backend, with lazy views parsed on the driver and
   on pipelined workers: decisions, final tree and premeld visit
   counters must be bit-identical throughout.  (The eager decoder is the
   reference the properties above hold the view to; no backend runs it.) *)
let test_pipeline_lazy_eager_identical () =
  let config =
    { Pipeline.premeld = Some { Premeld.threads = 3; distance = 8 };
      group_size = 2 }
  in
  let n = 2000 in
  let genesis = Helpers.genesis n in
  let rng = Rng.create 4242L in
  let gen = Pipeline.create ~config ~genesis () in
  let history = ref [ (-1, genesis) ] in
  let hist_len = ref 1 in
  let wires = ref [] in
  let next_pos = ref 0 in
  for txn_seq = 0 to 399 do
    let lag = min (Rng.int rng 40) (!hist_len - 1) in
    let snapshot_pos, snap = List.nth !history lag in
    let isolation =
      if Rng.int rng 4 = 0 then I.Snapshot_isolation else I.Serializable
    in
    let e =
      Executor.begin_txn ~snapshot_pos ~snapshot:snap ~server:0 ~txn_seq
        ~isolation ()
    in
    for _ = 1 to Rng.int rng 3 do
      ignore (Executor.read e (Rng.int rng n))
    done;
    for _ = 1 to 1 + Rng.int rng 2 do
      Executor.write e (Rng.int rng n) (Printf.sprintf "w%d" txn_seq)
    done;
    match Executor.finish e with
    | None -> ()
    | Some draft ->
        next_pos := !next_pos + 1 + Rng.int rng 2;
        let src = Codec.encode draft in
        let intention = Pipeline.decode gen ~pos:!next_pos src in
        wires := (!next_pos, src) :: !wires;
        ignore (Pipeline.submit gen intention);
        let _, pos, tree = Pipeline.lcs gen in
        history := (pos, tree) :: !history;
        incr hist_len
  done;
  ignore (Pipeline.flush gen);
  let wires = List.rev !wires in
  check "stream not trivial" true (List.length wires > 150);
  let replay runtime =
    let p = Pipeline.create ~config ~runtime ~genesis () in
    let decisions = Pipeline.submit_wire_batch p wires @ Pipeline.flush p in
    let _, _, final = Pipeline.lcs p in
    let counts =
      Array.map
        (fun (s : Counters.stage) ->
          (s.Counters.intentions, s.Counters.nodes_visited))
        (Pipeline.counters p).Counters.premeld_shards
    in
    let off = Pipeline.offload p in
    Pipeline.shutdown p;
    (decisions, final, counts, off)
  in
  (* The sequential run is the baseline; the pipe:2 row parses its views
     on worker domains and hands them across the stage queues. *)
  let bd, bfinal, bcounts, _ = replay Runtime.sequential in
  check "baseline decided everything" true (List.length bd = List.length wires);
  List.iter
    (fun (name, runtime) ->
      let d, final, counts, off = replay runtime in
      check (name ^ ": decisions identical to lazy seq") true
        (List.length d = List.length bd && List.for_all2 same_decision d bd);
      check (name ^ ": final tree physically identical") true
        (Tree.physically_equal final bfinal);
      check (name ^ ": premeld work identical") true (counts = bcounts);
      match off with
      | None -> ()
      | Some o ->
          check (name ^ ": workers parsed views") true
            (o.Pipeline.ds_offloaded > 0))
    [ ("pipe:2", Runtime.pipelined ~domains:2) ]

let () =
  Alcotest.run "view"
    [
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_view_matches_eager;
            prop_truncation_rejected;
            prop_bit_flip_differential;
          ] );
      ( "corruption",
        [
          Alcotest.test_case "fixtures cover refs, elisions, ephemerals"
            `Quick test_fixtures_cover;
          Alcotest.test_case "every bit flip: lazy and eager agree" `Quick
            test_bit_flip_sweep;
          Alcotest.test_case "every prefix raises Corrupt" `Quick
            test_prefix_sweep;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "lazy = eager across backends" `Quick
            test_pipeline_lazy_eager_identical;
        ] );
    ]
