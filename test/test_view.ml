(* [Codec.decode] must be indistinguishable from the reference decoder
   kept beside the tests: node by node in post order on valid input,
   decision by decision through the pipeline, and message by message on
   corrupt input.  DESIGN.md §13. *)

open Hyder_tree
module I = Hyder_codec.Intention
module Codec = Hyder_codec.Codec
module Executor = Hyder_core.Executor
module Pipeline = Hyder_core.Pipeline
module Premeld = Hyder_core.Premeld
module Counters = Hyder_core.Counters
module State_store = Hyder_core.State_store
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

(* Header and tree of [Codec.decode] agree with the reference decoder's:
   every inside node's key, meta, version words and payload in post
   order, with references and elided payloads physically the snapshot's
   objects. *)
let prop_view_matches_eager =
  QCheck2.Test.make ~name:"view accessors = eager decode, field by field"
    ~count:150 txn_gen (fun t ->
      match encode_txn t with
      | None -> true
      | Some bytes -> (
          let got = Codec.decode ~pos:11 ~peer:snapshot ~resolve bytes in
          match Eager_decoder.diff_decode ~pos:11 ~resolve bytes got with
          | None -> true
          | Some why -> QCheck2.Test.fail_reportf "%s disagrees" why))

(* Both decoders on one buffer: the tree, or the [Corrupt] message. *)
let outcomes ~peer ~resolve s =
  let decode f =
    match f s with d -> Ok d | exception Codec.Corrupt m -> Error m
  in
  ( decode (Eager_decoder.decode_indexed ~pos:5 ~resolve),
    decode (fun s -> (Codec.decode ~pos:5 ~peer ~resolve s).I.root) )

(* Why the two outcomes differ, if they do.  Both decoders run the same
   checks in the same order, so they reject with the same message. *)
let disagreement = function
  | Error e, Error d when e = d -> None
  | Error e, Error d -> Some (Printf.sprintf "eager %S, decode %S" e d)
  | Ok (e, elided), Ok d ->
      Option.map
        (fun why -> "both accepted, trees differ at " ^ why)
        (Eager_decoder.disagreement ~pos:5 ~elided e.I.root d)
  | Ok _, Error d -> Some ("only eager accepted; decode: " ^ d)
  | Error e, Ok _ -> Some ("only decode accepted; eager: " ^ e)

(* A strict prefix: both decoders reject it, with one message. *)
let prefix_rejected ~peer ~resolve s =
  match outcomes ~peer ~resolve s with
  | Ok _, _ -> Some "eager accepted it"
  | _, Ok _ -> Some "decode accepted it"
  | o -> disagreement o

(* Every strict prefix of a valid encoding must be rejected with Corrupt
   — never accepted, never any other exception — by both decoders with
   one message. *)
let prop_truncation_rejected =
  QCheck2.Test.make ~name:"every truncation raises Corrupt" ~count:40 txn_gen
    (fun t ->
      match encode_txn t with
      | None -> true
      | Some bytes ->
          for len = 0 to String.length bytes - 1 do
            match
              prefix_rejected ~peer:snapshot ~resolve (String.sub bytes 0 len)
            with
            | None -> ()
            | Some why ->
                QCheck2.Test.fail_reportf "prefix of %d/%d bytes: %s" len
                  (String.length bytes) why
          done;
          true)

(* Differential fuzz: after a single bit flip, [Codec.decode] and the
   reference decoder must agree on the outcome — both reject with the
   same Corrupt message, or both accept with the same tree. *)
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

(* The inside nodes of the intention decoded at position 5. *)
let rec inside_nodes (t : Node.tree) =
  if Node.is_empty t || Node.owner t <> 5 then []
  else (t :: inside_nodes t.Node.left) @ inside_nodes t.Node.right

(* A child that is neither empty nor inside: a bound reference. *)
let is_ref (c : Node.tree) = not (Node.is_empty c) && Node.owner c <> 5

(* The fixtures carry what their names promise. *)
let test_fixtures_cover () =
  let count (_, snap, bytes) f =
    let d = Codec.decode ~pos:5 ~peer:snap ~resolve:(resolver_of snap) bytes in
    List.length (List.filter f (inside_nodes d.I.root))
  in
  let has_ref (n : Node.node) = is_ref n.Node.left || is_ref n.Node.right in
  let elided (n : Node.node) =
    n.Node.meta land Node.Meta.altered = 0
    && n.Node.meta land Node.Meta.ssv_present <> 0
  in
  let reads (n : Node.node) = n.Node.meta land Node.Meta.dep_content <> 0 in
  let ephemeral (n : Node.node) =
    n.Node.meta land Node.Meta.ssv_ephemeral <> 0
  in
  match Lazy.force fixed_intentions with
  | [ sr; si; eph ] ->
      check "SR has refs" true (count sr has_ref > 0);
      check "SR has elided payloads" true (count sr elided > 0);
      check "SI records no reads" true (count si reads = 0);
      check "ephemeral sources present" true (count eph ephemeral > 0)
  | _ -> assert false

(* Every single-bit flip of every byte: [Codec.decode] and the reference
   decoder agree on the tree when both accept, and on the message when
   both reject. *)
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

(* Every strict prefix is rejected with Corrupt by both decoders, with
   one message. *)
let test_prefix_sweep () =
  List.iter
    (fun (name, snap, bytes) ->
      let resolve = resolver_of snap in
      for len = 0 to String.length bytes - 1 do
        match prefix_rejected ~peer:snap ~resolve (String.sub bytes 0 len) with
        | None -> ()
        | Some why -> Alcotest.failf "%s: %d-byte prefix: %s" name len why
      done)
    (Lazy.force fixed_intentions)

(* ---- varints ---------------------------------------------------------- *)

(* [Codec.uint_at] (the decoder's varint reader, with its unrolled two- and
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
            match Codec.uint_at s pre with
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

(* Record a deterministic wire stream with a generator that decodes and
   melds each intention right after encoding it, then replay the stream
   in one wire batch through a fresh pipeline: decisions, final tree and
   premeld visit counters must equal the generator's.  (The reference
   decoder is what the properties above hold [Codec.decode] to; no
   pipeline runs it.) *)
let test_wire_replay_matches_generator () =
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
  let gen_decisions = ref [] in
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
        (match
           Eager_decoder.diff_decode ~pos:!next_pos
             ~resolve:(State_store.resolver (Pipeline.states gen))
             src intention
         with
        | None -> ()
        | Some why ->
            Alcotest.failf "intention at %d differs from the reference: %s"
              !next_pos why);
        wires := (!next_pos, src) :: !wires;
        gen_decisions :=
          List.rev_append (Pipeline.submit gen intention) !gen_decisions;
        let _, pos, tree = Pipeline.lcs gen in
        history := (pos, tree) :: !history;
        incr hist_len
  done;
  let gd = List.rev (List.rev_append (Pipeline.flush gen) !gen_decisions) in
  let _, _, gfinal = Pipeline.lcs gen in
  let pm_counts p =
    let s = (Pipeline.counters p).Counters.premeld in
    (s.Counters.intentions, s.Counters.nodes_visited)
  in
  let wires = List.rev !wires in
  check "stream not trivial" true (List.length wires > 150);
  check "generator decided everything" true
    (List.length gd = List.length wires);
  let p = Pipeline.create ~config ~genesis () in
  let d = Pipeline.submit_wire_batch p wires @ Pipeline.flush p in
  let _, _, final = Pipeline.lcs p in
  check "decisions identical to the generator's" true
    (List.length d = List.length gd && List.for_all2 same_decision d gd);
  check "final tree physically identical" true
    (Tree.physically_equal final gfinal);
  check "premeld work identical" true (pm_counts p = pm_counts gen)

(* ---- allocation ------------------------------------------------------ *)

(* A serializable draft over a 4,000-key snapshot with at least [nodes]
   inside nodes, built by [touch] on spread-out keys; its snapshot and
   wire bytes. *)
let spread_draft ~nodes touch =
  let snap = Helpers.genesis ~gap:3 4000 in
  let e =
    Executor.begin_txn ~snapshot_pos:(-1) ~snapshot:snap ~server:3
      ~txn_seq:17 ~isolation:I.Serializable ()
  in
  let rec drafts (t : Node.tree) =
    if Node.is_empty t || Node.owner t <> I.draft_owner then 0
    else 1 + drafts t.Node.left + drafts t.Node.right
  in
  touch e 0;
  let k = ref 1 in
  while drafts (Executor.working_tree e) < nodes do
    touch e !k;
    incr k
  done;
  (snap, Codec.encode (Option.get (Executor.finish e)))

(* Words [f ()] allocates directly on the major heap: [Gc.counters]'
   major words minus its promoted words. *)
let direct_major f =
  let _, p0, m0 = Gc.counters () in
  let v = f () in
  let _, p1, m1 = Gc.counters () in
  ignore (Sys.opaque_identity v);
  m1 -. m0 -. (p1 -. p0)

(* [Codec.decode] allocates nothing directly on the major heap, whatever
   the intention's size: each node is one young block as its walk
   returns, with no per-intention index array (a 1,000-word array would
   be born on the major heap, past the minor heap's 256-word limit for
   young blocks). *)
let test_parse_stays_young () =
  List.iter
    (fun target ->
      let snap, bytes =
        spread_draft ~nodes:target (fun e i ->
            Executor.write e (i * 97 mod 4000 * 3) "w")
      in
      let decode () =
        Codec.decode ~pos:5 ~peer:snap ~resolve:(resolver_of snap) bytes
      in
      let n = (decode ()).I.node_count in
      check (Printf.sprintf "%d+ nodes (%d)" target n) true (n >= target);
      Alcotest.(check (float 0.))
        (Printf.sprintf "direct-major words, %d nodes" n)
        0.
        (direct_major decode))
    [ 200; 1000 ]

(* Binding references allocates nothing directly on the major heap
   either: a decode binding 100 or more references, with no warm-up
   decode. *)
let test_parse_refs_stay_young () =
  let snap, bytes =
    spread_draft ~nodes:180 (fun e i ->
        if i = 0 then Executor.write e 3 "w";
        ignore (Executor.read e (i * 149 mod 4000 * 3)))
  in
  let d = ref None in
  let words =
    direct_major (fun () ->
        d := Some (Codec.decode ~pos:5 ~peer:snap ~resolve:(resolver_of snap) bytes))
  in
  let d = Option.get !d in
  let refs =
    List.fold_left
      (fun acc (n : Node.node) ->
        acc + Bool.to_int (is_ref n.Node.left) + Bool.to_int (is_ref n.Node.right))
      0 (inside_nodes d.I.root)
  in
  check
    (Printf.sprintf ">= 100 references (%d), <= 255 nodes (%d)" refs
       d.I.node_count)
    true
    (refs >= 100 && d.I.node_count <= 255);
  Alcotest.(check (float 0.)) "direct-major words" 0. words

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
          Alcotest.test_case "wire replay = wire-fed generator" `Quick
            test_wire_replay_matches_generator;
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
