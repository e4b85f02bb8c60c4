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

(* A state node whose vn and cv are both [v]: the other side of a
   source-version comparison. *)
let holder v =
  Node.make ~key:0 ~payload:Payload.tombstone ~left:Node.empty
    ~right:Node.empty ~vn:v ~cv:v ~ssv:None ~scv:None ~altered:false
    ~depends_on_content:false ~depends_on_structure:false
    ~owner:Node.state_owner

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
          let eager, nodes = Eager_decoder.decode_indexed ~pos:11 ~resolve bytes in
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
              ok idx "vn" (Vn.equal (View.vn v idx) (Node.vn n));
              let sa, sb, ca, cb = View.sources v idx in
              ok idx "sources"
                (sa = n.Node.ssv_a && sb = n.Node.ssv_b && ca = n.Node.scv_a
                && cb = n.Node.scv_b);
              (* an altered node's cv is its vn, an unaltered one's its scv *)
              ok idx "cv"
                (if Node.altered n then
                   n.Node.cv_a = View.pos v && n.Node.cv_b = idx
                 else n.Node.cv_a = ca && n.Node.cv_b = cb);
              ok idx "payload" (Payload.equal (View.payload v idx) n.Node.payload);
              ok idx "ssv" (vn_opt_equal (View.ssv v idx) (Node.ssv n));
              (* the in-place source comparators mirror the packed ones *)
              ok idx "ssv_equals vn"
                (View.ssv_equals v idx n = Node.ssv_equals n n);
              (match Node.ssv n with
              | Some s ->
                  ok idx "ssv_equals hit" (View.ssv_equals v idx (holder s))
              | None -> ());
              ok idx "scv_equals cv"
                (View.scv_equals v idx n = Node.scv_equals n n);
              (match Node.scv n with
              | Some s ->
                  ok idx "scv_equals hit" (View.scv_equals v idx (holder s))
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

(* Both decoders on one buffer: the tree, or the [Corrupt] message. *)
let outcomes ~peer ~resolve s =
  let eager =
    match Eager_decoder.decode ~pos:5 ~resolve s with
    | d -> Ok d.I.root
    | exception Codec.Corrupt m -> Error m
  in
  let lazy_ =
    match Codec.decode_lazy ~pos:5 ~peer ~resolve s with
    | { I.view = Some v; _ } -> Ok (View.materialize_root v)
    | _ -> Alcotest.fail "decode_lazy carried no view"
    | exception Codec.Corrupt m -> Error m
  in
  (eager, lazy_)

(* Why the two outcomes differ, if they do.  Both decoders run the same
   checks in the same order, so they reject with the same message. *)
let disagreement = function
  | Error e, Error l when e = l -> None
  | Error e, Error l -> Some (Printf.sprintf "eager %S, lazy %S" e l)
  | Ok e, Ok l ->
      if Tree.physically_equal e l then None
      else Some "both accepted, trees differ"
  | Ok _, Error l -> Some ("only eager accepted; lazy: " ^ l)
  | Error e, Ok _ -> Some ("only lazy accepted; eager: " ^ e)

(* Differential fuzz: after a single bit flip, lazy and eager must agree
   on the outcome — both reject with the same Corrupt message, or both
   accept with physically identical trees. *)
let prop_bit_flip_differential =
  QCheck2.Test.make ~name:"bit flips: lazy and eager agree" ~count:120
    QCheck2.Gen.(pair txn_gen (pair big_nat (int_bound 7)))
    (fun (t, (posn, bit)) ->
      match encode_txn t with
      | None -> true
      | Some bytes -> (
          let i = posn mod String.length bytes in
          let b = Bytes.of_string bytes in
          Bytes.set b i
            (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
          match disagreement (outcomes ~peer:snapshot ~resolve (Bytes.to_string b)) with
          | None -> true
          | Some why ->
              QCheck2.Test.fail_reportf "flip at byte %d bit %d: %s" i bit why))

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
      else Node.vn t
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
   on the tree when both accept, and on the message when both reject. *)
let test_bit_flip_sweep () =
  List.iter
    (fun (name, snap, bytes) ->
      let resolve = resolver_of snap in
      for i = 0 to String.length bytes - 1 do
        for bit = 0 to 7 do
          let b = Bytes.of_string bytes in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
          match disagreement (outcomes ~peer:snap ~resolve (Bytes.to_string b)) with
          | None -> ()
          | Some why ->
              Alcotest.failf "%s: flip at byte %d bit %d: %s" name i bit why
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
        (match Eager_decoder.decode ~pos:5 ~resolve s with
        | _ -> Alcotest.failf "%s: eager accepted a %d-byte prefix" name len
        | exception Codec.Corrupt _ -> ());
        match Codec.decode_lazy ~pos:5 ~peer:snap ~resolve s with
        | _ -> Alcotest.failf "%s: lazy accepted a %d-byte prefix" name len
        | exception Codec.Corrupt _ -> ()
      done)
    (Lazy.force fixed_intentions)

(* ---- varints ---------------------------------------------------------- *)

(* [View.uint_at] (the parse's varint reader, with its unrolled two- and
   three-byte paths) against [Wire.Reader.varint64]: same value mod 2^63,
   same end offset, [Truncated] on the same buffers.  Every encoded
   length from 1 to 10 bytes, non-canonical forms, the shift-63 group
   (only its low bit lands, on bit 63, which the conversion drops) and
   an 11th group, each placed after 0-2 bytes of prefix and cut at every
   length, so the buffer ends 0, 1, 2, ... bytes past the first byte. *)
let test_uint_matches_reader () =
  let module Wire = Hyder_util.Wire in
  let encode v =
    let w = Wire.Writer.create ~capacity:16 () in
    Wire.Writer.varint64 w v;
    Wire.Writer.contents w
  in
  let rng = Rng.create 99L in
  (* values of each length: the ends of its range and random ones *)
  let of_length l =
    let lo = if l = 1 then 0L else Int64.shift_left 1L (7 * (l - 1)) in
    let hi =
      if l >= 10 then -1L else Int64.pred (Int64.shift_left 1L (7 * l))
    in
    lo :: hi
    :: List.init 20 (fun _ ->
           if l >= 10 then Int64.logor Int64.min_int (Rng.next_int64 rng)
           else
             Int64.add lo
               (Int64.rem
                  (Int64.logand (Rng.next_int64 rng) Int64.max_int)
                  (Int64.add (Int64.sub hi lo) 1L)))
  in
  let encodings =
    List.concat_map (fun l -> List.map encode (of_length l)) (List.init 10 succ)
    @ [
        "\x80\x00"; "\xff\x80\x00"; "\x80\x80\x80\x00";
        (* ten bytes, the last at shift 63: only bit 63, dropped *)
        "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x7f";
        "\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01";
        (* an eleventh group is past any 64-bit value *)
        "\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01";
      ]
  in
  List.iter
    (fun (e : string) ->
      let l = String.length e in
      for pre = 0 to 2 do
        let full = String.make pre '\x85' ^ e ^ "\x81\x02" in
        for cut = pre to String.length full do
          let s = String.sub full 0 cut in
          let want =
            let r = Wire.Reader.of_string ~pos:pre s in
            match Wire.Reader.varint64 r with
            | x -> Some (Int64.to_int x, Wire.Reader.pos r)
            | exception Wire.Truncated -> None
          in
          let got =
            match View.uint_at s pre with
            | x -> Some x
            | exception Wire.Truncated -> None
          in
          if got <> want then
            Alcotest.failf "%d-byte varint, prefix %d, cut at %d: disagree" l
              pre cut
        done
      done)
    encodings;
  check "every length 1..10 covered" true
    (List.for_all
       (fun l -> List.exists (fun e -> String.length e = l) encodings)
       (List.init 10 succ))

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

(* ---- allocation ------------------------------------------------------ *)

(* [View.parse] of a 200-node intention allocates nothing directly on the
   major heap: each per-node index array is [node_count] words, within
   the minor heap's 256-word limit for young blocks.  [Gc.counters]'
   major words minus promoted words counts exactly the direct-major
   allocations (a one-piece stride-4 index would read 4 * 200 + 1). *)
let test_parse_stays_young () =
  let snap = Helpers.genesis ~gap:3 4000 in
  let e =
    Executor.begin_txn ~snapshot_pos:(-1) ~snapshot:snap ~server:3
      ~txn_seq:17 ~isolation:I.Serializable ()
  in
  let rec drafts (t : Node.tree) =
    if Node.is_empty t || Node.owner t <> I.draft_owner then 0
    else 1 + drafts t.Node.left + drafts t.Node.right
  in
  let k = ref 0 in
  while drafts (Executor.working_tree e) < 200 do
    Executor.write e (!k * 3) "w";
    k := (!k + 97) mod 4000
  done;
  let bytes = Codec.encode (Option.get (Executor.finish e)) in
  let parse () =
    View.parse ~pos:5 ~peer:snap ~resolve:(resolver_of snap) bytes
  in
  let v = parse () in
  let n = View.node_count v in
  check (Printf.sprintf "200..256 nodes (%d)" n) true (n >= 200 && n <= 256);
  let _, p0, m0 = Gc.counters () in
  let v = parse () in
  let _, p1, m1 = Gc.counters () in
  ignore (Sys.opaque_identity v);
  Alcotest.(check (float 0.)) "direct-major words" 0. (m1 -. m0 -. (p1 -. p0))

(* The bound-reference stage is a per-parse array like the index arrays:
   a parse binding 100 or more references allocates nothing directly on
   the major heap either, and needs no warm-up parse. *)
let test_parse_refs_stay_young () =
  let snap = Helpers.genesis ~gap:3 4000 in
  let e =
    Executor.begin_txn ~snapshot_pos:(-1) ~snapshot:snap ~server:3
      ~txn_seq:17 ~isolation:I.Serializable ()
  in
  let rec drafts (t : Node.tree) =
    if Node.is_empty t || Node.owner t <> I.draft_owner then 0
    else 1 + drafts t.Node.left + drafts t.Node.right
  in
  Executor.write e 3 "w";
  let k = ref 0 in
  while drafts (Executor.working_tree e) < 180 do
    ignore (Executor.read e (!k * 3));
    k := (!k + 149) mod 4000
  done;
  let bytes = Codec.encode (Option.get (Executor.finish e)) in
  let _, p0, m0 = Gc.counters () in
  let v = View.parse ~pos:5 ~peer:snap ~resolve:(resolver_of snap) bytes in
  let _, p1, m1 = Gc.counters () in
  let n = View.node_count v in
  let refs = ref 0 in
  for idx = 0 to n - 1 do
    List.iter
      (fun c -> if c < -1 then incr refs)
      [ View.kid_l v idx; View.kid_r v idx ]
  done;
  check (Printf.sprintf ">= 100 references (%d), <= 255 nodes (%d)" !refs n)
    true (!refs >= 100 && n <= 255);
  Alcotest.(check (float 0.)) "direct-major words" 0. (m1 -. m0 -. (p1 -. p0))

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
      ( "allocation",
        [
          Alcotest.test_case "parse of 200 nodes stays young" `Quick
            test_parse_stays_young;
          Alcotest.test_case "parse of 100+ references stays young" `Quick
            test_parse_refs_stay_young;
        ] );
      ( "varints",
        [
          Alcotest.test_case "uint = Wire.Reader.varint64, lengths 1..10"
            `Quick test_uint_matches_reader;
        ] );
    ]
