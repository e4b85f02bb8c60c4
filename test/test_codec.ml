open Hyder_tree
module I = Hyder_codec.Intention
module Codec = Hyder_codec.Codec
module Executor = Hyder_core.Executor

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---- byte-exact oracle: the straightforward Wire.Writer encoder ------- *)
(* One [Wire.Writer] call per field, written in the order the format
   defines.  [Codec.encode] must produce exactly these bytes. *)
module Oracle = struct
  module Wire = Hyder_util.Wire
  module Meta = Node.Meta

  let zigzag v = Int64.logxor (Int64.shift_left v 1) (Int64.shift_right v 63)

  let w_zint w v =
    (* native zigzag where it equals the 64-bit one and stays
       non-negative; the exact Int64 mapping beyond *)
    let s = v asr 60 in
    if s = 0 || s = -1 then Wire.Writer.varint w (v lsl 1 lxor (v asr 62))
    else Wire.Writer.varint64 w (zigzag (Int64.of_int v))

  let w_vn_parts w ~eph ~a ~b =
    Wire.Writer.u8 w (if eph then 1 else 0);
    if eph then Wire.Writer.varint w a else w_zint w a;
    Wire.Writer.varint w b

  let w_vn w = function
    | Vn.Logged { pos; idx } -> w_vn_parts w ~eph:false ~a:pos ~b:idx
    | Vn.Ephemeral { thread; seq } -> w_vn_parts w ~eph:true ~a:thread ~b:seq

  let is_draft n = n != Node.empty && Node.owner n = I.draft_owner

  let encode (d : I.draft) =
    let w = Wire.Writer.create () in
    w_zint w d.snapshot;
    Wire.Writer.varint w d.server;
    Wire.Writer.varint w d.txn_seq;
    Wire.Writer.u8 w
      (match d.isolation with
      | I.Serializable -> 0
      | I.Snapshot_isolation -> 1
      | I.Read_committed -> 2);
    let rec count t =
      if is_draft t then 1 + count t.Node.left + count t.Node.right else 0
    in
    Wire.Writer.varint w (count d.root);
    let w_child (c : Node.tree) =
      if is_draft c then Wire.Writer.u8 w 1
      else if c == Node.empty then Wire.Writer.u8 w 0
      else begin
        Wire.Writer.u8 w 2;
        w_vn w (Node.vn c);
        w_zint w c.key
      end
    in
    (* pre-order: each record before its inside children's *)
    let rec go (n : Node.tree) =
      if is_draft n then begin
        let m = n.meta in
        let elide = m land Meta.altered = 0 && m land Meta.ssv_present <> 0 in
        w_zint w n.key;
        Wire.Writer.u8 w
          (m land 0x7
          lor (if m land Meta.ssv_present <> 0 then 8 else 0)
          lor (if m land Meta.scv_present <> 0 then 16 else 0)
          lor (if Payload.is_tombstone n.payload then 32 else 0)
          lor if elide then 64 else 0);
        (match n.payload with
        | Payload.Value s when not elide -> Wire.Writer.bytes w s
        | _ -> ());
        if m land Meta.ssv_present <> 0 then
          w_vn_parts w ~eph:(m land Meta.ssv_ephemeral <> 0) ~a:n.ssv_a
            ~b:n.ssv_b;
        if m land Meta.scv_present <> 0 then
          w_vn_parts w ~eph:(m land Meta.scv_ephemeral <> 0) ~a:n.scv_a
            ~b:n.scv_b;
        w_child n.left;
        w_child n.right;
        go n.left;
        go n.right
      end
    in
    if d.root != Node.empty && not (is_draft d.root) then
      raise (Codec.Corrupt "intention root is not a draft node");
    go d.root;
    Wire.Writer.contents w
end

(* Build a draft by running an executor against a genesis snapshot. *)
let make_draft ?(isolation = I.Serializable) ~snapshot ~snapshot_pos body =
  let e =
    Executor.begin_txn ~snapshot_pos ~snapshot ~server:3 ~txn_seq:17
      ~isolation ()
  in
  body e;
  match Executor.finish e with
  | Some d -> d
  | None -> Alcotest.fail "expected a draft"

let resolver_of snapshot ~snapshot_pos : Codec.resolver =
 fun ~snapshot:pos ~key ~vn ->
  ignore vn;
  check_int "resolver asked for the right snapshot" snapshot_pos pos;
  match Tree.find snapshot key with
  | Some n -> n
  | None -> Node.empty

let test_roundtrip_matches_assign () =
  let snapshot = Helpers.genesis ~gap:10 500 in
  let draft =
    make_draft ~snapshot ~snapshot_pos:(-1) (fun e ->
        Executor.write e 100 "updated";
        Executor.write e 105 "inserted";
        ignore (Executor.read e 200);
        Executor.delete e 300)
  in
  let bytes = Codec.encode draft in
  let decoded =
    Eager_decoder.decode ~pos:7 ~resolve:(resolver_of snapshot ~snapshot_pos:(-1)) bytes
  in
  let assigned = I.assign ~pos:7 draft in
  check "physically identical to assign" true
    (Tree.physically_equal decoded.I.root assigned.I.root);
  check_int "node counts agree" assigned.I.node_count decoded.I.node_count;
  check_int "snapshot" (-1) decoded.I.snapshot;
  check_int "server" 3 decoded.I.server;
  check_int "txn_seq" 17 decoded.I.txn_seq;
  check "isolation" true (decoded.I.isolation = I.Serializable);
  check_int "byte size recorded" (String.length bytes) decoded.I.byte_size

let test_roundtrip_snapshot_isolation_smaller () =
  let snapshot = Helpers.genesis ~gap:10 500 in
  let body e =
    for i = 0 to 7 do
      ignore (Executor.read e (i * 50))
    done;
    Executor.write e 100 "x";
    Executor.write e 200 "y"
  in
  let sr = make_draft ~isolation:I.Serializable ~snapshot ~snapshot_pos:(-1) body in
  let si =
    make_draft ~isolation:I.Snapshot_isolation ~snapshot ~snapshot_pos:(-1) body
  in
  let sr_size = Codec.encoded_size sr in
  let si_size = Codec.encoded_size si in
  check
    (Printf.sprintf "SI intention much smaller (%d vs %d)" si_size sr_size)
    true
    (si_size * 2 < sr_size)

let test_decode_rejects_corruption () =
  let snapshot = Helpers.genesis ~gap:10 100 in
  let draft =
    make_draft ~snapshot ~snapshot_pos:(-1) (fun e -> Executor.write e 10 "v")
  in
  let bytes = Codec.encode draft in
  let resolve = resolver_of snapshot ~snapshot_pos:(-1) in
  (* Truncation *)
  (try
     ignore
       (Eager_decoder.decode ~pos:1 ~resolve (String.sub bytes 0 (String.length bytes / 2)));
     Alcotest.fail "expected Corrupt"
   with Codec.Corrupt _ -> ());
  (* Trailing garbage *)
  try
    ignore (Eager_decoder.decode ~pos:1 ~resolve (bytes ^ "zz"));
    Alcotest.fail "expected Corrupt"
  with Codec.Corrupt _ -> ()

(* A reference's [idx] varint that wraps negative (both decoders keep a
   varint's low 63 bits) must not alias an ephemeral node.  The snapshot
   holds key 4 at the ephemeral version E(3, 5); the reference names the
   logged version L(3, -6).  A value class carried in the sign of a word
   would store E(3, 5) as the words (3, lnot 5) = (3, -6) and accept the
   reference; with the class in its own bit, both decoders reject it with
   one message. *)
let test_wrapped_ref_idx_rejected () =
  let module W = Hyder_util.Wire.Writer in
  let target =
    Node.make ~key:4 ~payload:(Payload.value "s") ~left:Node.empty
      ~right:Node.empty
      ~vn:(Vn.ephemeral ~thread:3 ~seq:5)
      ~cv:(Vn.ephemeral ~thread:3 ~seq:5)
      ~ssv:None ~scv:None ~altered:false ~depends_on_content:false
      ~depends_on_structure:false ~owner:Node.state_owner
  in
  let w = W.create () in
  Oracle.w_zint w (-1) (* snapshot *);
  W.varint w 0 (* server *);
  W.varint w 0 (* txn_seq *);
  W.u8 w 0 (* serializable *);
  W.varint w 1 (* one record *);
  (* an inserted node, key 10: altered, inline payload, no sources *)
  Oracle.w_zint w 10;
  W.u8 w 1;
  W.bytes w "v";
  (* left: a reference, logged, pos 3, idx -6 as a wrapping 10-byte
     varint; then its key *)
  W.u8 w 2;
  W.u8 w 0;
  Oracle.w_zint w 3;
  W.varint64 w (Int64.of_int (-6));
  Oracle.w_zint w 4;
  (* right: empty *)
  W.u8 w 0;
  let bytes = W.contents w in
  let resolve ~snapshot:_ ~key ~vn:_ =
    if key = 4 then target else Node.empty
  in
  let expected = "reference to key 4 resolved to wrong version" in
  (match Eager_decoder.decode ~pos:7 ~resolve bytes with
  | _ -> Alcotest.fail "eager decoder accepted a wrapped reference"
  | exception Codec.Corrupt m ->
      Alcotest.(check string) "eager message" expected m);
  match Codec.decode_lazy ~pos:7 ~peer:target ~resolve bytes with
  | _ -> Alcotest.fail "View.parse accepted a wrapped reference"
  | exception Codec.Corrupt m ->
      Alcotest.(check string) "lazy message" expected m

(* ---- header peek and reusable encoder -------------------------------- *)

let test_peek_snapshot () =
  let snapshot = Helpers.genesis ~gap:10 500 in
  let draft =
    make_draft ~snapshot ~snapshot_pos:31 (fun e -> Executor.write e 100 "x")
  in
  let bytes = Codec.encode draft in
  check_int "snapshot peeked without decoding" 31 (Codec.peek_snapshot bytes);
  (* truncated header *)
  match Codec.peek_snapshot "" with
  | exception Codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "expected Corrupt on empty header"

let test_encoder_matches_encode () =
  let snapshot = Helpers.genesis ~gap:10 500 in
  let enc = Codec.Encoder.create () in
  (* interleave drafts of very different sizes so the writer grows and is
     reused across encodes *)
  let drafts =
    List.map
      (fun ops ->
        make_draft ~snapshot ~snapshot_pos:(-1) (fun e ->
            for i = 0 to ops - 1 do
              Executor.write e (i * 7 mod 5000) ("v" ^ string_of_int i)
            done))
      [ 1; 40; 2; 25; 3 ]
  in
  List.iter
    (fun draft ->
      Alcotest.(check string)
        "reused encoder byte-identical to Codec.encode" (Codec.encode draft)
        (Codec.Encoder.encode enc draft))
    drafts

let test_encoder_steady_state_allocation () =
  (* Regression guard for the encode hot-path copy bug: once the backing
     buffer has grown to steady state, each encode must allocate only the
     returned string — no intermediate buffer copy, no regrowth.  The
     budget is the result string's own words plus slack for Gc counter
     noise; the copy bug doubled the real figure. *)
  let snapshot = Helpers.genesis ~gap:10 500 in
  let enc = Codec.Encoder.create () in
  let draft =
    make_draft ~snapshot ~snapshot_pos:(-1) (fun e ->
        for i = 0 to 24 do
          Executor.write e (i * 20) ("v" ^ string_of_int i)
        done)
  in
  let bytes = Codec.Encoder.encode enc draft in
  let reps = 200 in
  let w0 = Gc.minor_words () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (Codec.Encoder.encode enc draft))
  done;
  let per = (Gc.minor_words () -. w0) /. float_of_int reps in
  let result_words = float_of_int ((String.length bytes + 8) / 8 + 1) in
  check
    (Printf.sprintf
       "steady-state encode allocates only the result string (%.1f words \
        for a %.0f-word string)"
       per result_words)
    true
    (per < (result_words *. 1.25) +. 16.)

let test_blocks_roundtrip_single () =
  let payload = "some intention bytes" in
  let blocks = Codec.Blocks.split ~block_size:8192 ~server:1 ~txn_seq:5 payload in
  check_int "one block" 1 (List.length blocks);
  let r = Codec.Blocks.Reassembler.create () in
  match Codec.Blocks.Reassembler.feed r ~pos:42 (List.hd blocks) with
  | Some (pos, bytes) ->
      check_int "position of last block" 42 pos;
      Alcotest.(check string) "payload" payload bytes
  | None -> Alcotest.fail "expected completion"

let test_blocks_roundtrip_multi () =
  let payload = String.init 20_000 (fun i -> Char.chr (i mod 256)) in
  let blocks = Codec.Blocks.split ~block_size:4096 ~server:2 ~txn_seq:9 payload in
  check "multiple blocks" true (List.length blocks > 4);
  List.iter
    (fun b -> check "fits page" true (String.length b <= 4096))
    blocks;
  check_int "count formula agrees"
    (List.length blocks)
    (Codec.Blocks.blocks_needed ~block_size:4096 (String.length payload));
  let r = Codec.Blocks.Reassembler.create () in
  let result = ref None in
  List.iteri
    (fun i b ->
      match Codec.Blocks.Reassembler.feed r ~pos:(100 + i) b with
      | Some (pos, bytes) ->
          check_int "last block position" (100 + List.length blocks - 1) pos;
          result := Some bytes
      | None -> check "only last completes" true (i < List.length blocks - 1))
    blocks;
  Alcotest.(check (option string)) "payload intact" (Some payload) !result;
  check_int "no pending" 0 (Codec.Blocks.Reassembler.pending r)

let test_blocks_interleaved_servers () =
  let pa = String.make 9000 'a' and pb = String.make 9000 'b' in
  let ba = Codec.Blocks.split ~block_size:4096 ~server:0 ~txn_seq:1 pa in
  let bb = Codec.Blocks.split ~block_size:4096 ~server:1 ~txn_seq:1 pb in
  let r = Codec.Blocks.Reassembler.create () in
  let done_ = ref [] in
  let pos = ref 0 in
  let feed b =
    (match Codec.Blocks.Reassembler.feed r ~pos:!pos b with
    | Some (p, bytes) -> done_ := (p, bytes) :: !done_
    | None -> ());
    incr pos
  in
  (* Interleave the two servers' block streams. *)
  List.iter2 (fun a b -> feed a; feed b) ba bb;
  check_int "both completed" 2 (List.length !done_);
  let by_content c = List.find (fun (_, b) -> b.[0] = c) !done_ in
  check "a intact" true (snd (by_content 'a') = pa);
  check "b intact" true (snd (by_content 'b') = pb)

(* A block stream that starts mid-intention (its first fragment is not
   fragment 0) is rejected and leaves nothing pending; the intention's
   real stream still reassembles afterwards. *)
let test_blocks_rejected_first_fragment () =
  let payload = String.make 9000 'p' in
  let blocks = Codec.Blocks.split ~block_size:4096 ~server:3 ~txn_seq:7 payload in
  let r = Codec.Blocks.Reassembler.create () in
  (match Codec.Blocks.Reassembler.feed r ~pos:0 (List.nth blocks 1) with
  | exception Codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "expected Corrupt on fragment 1 first");
  check_int "no phantom partial" 0 (Codec.Blocks.Reassembler.pending r);
  let result = ref None in
  List.iteri
    (fun i b ->
      match Codec.Blocks.Reassembler.feed r ~pos:(1 + i) b with
      | Some (_, bytes) -> result := Some bytes
      | None -> ())
    blocks;
  Alcotest.(check (option string)) "payload intact" (Some payload) !result;
  check_int "no pending" 0 (Codec.Blocks.Reassembler.pending r)

let test_blocks_checksum_detects_flip () =
  let blocks = Codec.Blocks.split ~block_size:8192 ~server:0 ~txn_seq:0 "data" in
  let b = Bytes.of_string (List.hd blocks) in
  Bytes.set b (Bytes.length b - 1) 'X';
  let r = Codec.Blocks.Reassembler.create () in
  try
    ignore (Codec.Blocks.Reassembler.feed r ~pos:0 (Bytes.to_string b));
    Alcotest.fail "expected Corrupt"
  with Codec.Corrupt _ -> ()

let test_read_only_regions_become_refs () =
  (* A write touches one path; the rest of the tree must serialize as
     references, keeping intentions small. *)
  let snapshot = Helpers.genesis 10_000 in
  let draft =
    make_draft ~snapshot ~snapshot_pos:(-1) (fun e -> Executor.write e 5000 "v")
  in
  let size = Codec.encoded_size draft in
  check (Printf.sprintf "intention is small (%d bytes)" size) true (size < 2000);
  let assigned = I.assign ~pos:3 draft in
  check
    (Printf.sprintf "path-sized node count (%d)" assigned.I.node_count)
    true
    (assigned.I.node_count < 40)

(* Property: encode/decode roundtrip equals assign for random transactions. *)
let prop_roundtrip =
  QCheck2.Test.make ~name:"codec roundtrip = assign" ~count:100
    QCheck2.Gen.(
      pair (list_size (int_range 1 10) (int_bound 499))
        (list_size (int_range 0 6) (int_bound 499)))
    (fun (writes, reads) ->
      let snapshot = Helpers.genesis ~gap:3 500 in
      let draft =
        make_draft ~snapshot ~snapshot_pos:(-1) (fun e ->
            List.iter (fun k -> ignore (Executor.read e (k * 3))) reads;
            List.iter (fun k -> Executor.write e (k * 3) "w") writes)
      in
      let bytes = Codec.encode draft in
      let resolve ~snapshot:_ ~key ~vn:_ =
        match Tree.find snapshot key with Some n -> n | None -> Node.empty
      in
      let decoded = Eager_decoder.decode ~pos:11 ~resolve bytes in
      let parsed = Codec.decode_lazy ~pos:11 ~peer:snapshot ~resolve bytes in
      let assigned = (I.assign ~pos:11 draft).I.root in
      (* the eager reference and the pipeline's own path both number
         nodes in post order, as [assign] does *)
      Tree.physically_equal decoded.I.root assigned
      && Tree.physically_equal
           (Hyder_codec.View.materialize_root (Option.get parsed.I.view))
           assigned)

(* A header node count above or below the records that follow is
   rejected by both decoders with one message. *)
let test_node_count_mismatch () =
  let snapshot = Helpers.genesis ~gap:10 100 in
  let draft =
    make_draft ~snapshot ~snapshot_pos:(-1) (fun e ->
        Executor.write e 10 "v";
        Executor.write e 500 "w")
  in
  let bytes = Codec.encode draft in
  (* snapshot -1, server 3, txn_seq 17 and the isolation take one byte
     each, so the count is byte 4 *)
  let count = Char.code bytes.[4] in
  check "count is one byte" true (count > 1 && count < 126);
  let resolve = resolver_of snapshot ~snapshot_pos:(-1) in
  let outcome decode s =
    match decode s with _ -> "accepted" | exception Codec.Corrupt m -> m
  in
  List.iter
    (fun claimed ->
      let b = Bytes.of_string bytes in
      Bytes.set b 4 (Char.chr claimed);
      let s = Bytes.to_string b in
      let want = Printf.sprintf "node count %d does not match the records" claimed in
      Alcotest.(check string) "eager" want (outcome (Eager_decoder.decode ~pos:1 ~resolve) s);
      Alcotest.(check string) "lazy" want
        (outcome (Codec.decode_lazy ~pos:1 ~peer:snapshot ~resolve) s))
    [ 0; count - 1; count + 1; count + 2 ]

(* The encoder, the parser and materialization all recurse to the
   intention's depth; a chain of 100,000 inside nodes must round-trip on
   the main domain and on a spawned one. *)
let deep_chain_roundtrip () =
  let depth = 100_000 in
  let vn = Vn.logged ~pos:max_int ~idx:0 in
  let root = ref Node.empty in
  for key = depth - 1 downto 0 do
    root :=
      Node.make ~key ~payload:(Payload.value "v") ~left:Node.empty ~right:!root
        ~vn ~cv:vn ~ssv:None ~scv:None ~altered:true ~depends_on_content:false
        ~depends_on_structure:false ~owner:I.draft_owner
  done;
  let draft =
    { I.snapshot = -1; server = 0; txn_seq = 0; isolation = I.Serializable;
      root = !root }
  in
  let parsed =
    Codec.decode_lazy ~pos:9
      ~resolve:(fun ~snapshot:_ ~key:_ ~vn:_ -> Node.empty)
      (Codec.encode draft)
  in
  parsed.I.node_count = depth
  && Tree.physically_equal
       (Hyder_codec.View.materialize_root (Option.get parsed.I.view))
       (I.assign ~pos:9 draft).I.root

let test_deep_nesting () =
  check "main domain" true (deep_chain_roundtrip ());
  check "spawned domain" true (Domain.join (Domain.spawn deep_chain_roundtrip))

(* ---- encoder = oracle, byte for byte ---------------------------------- *)

(* Magnitudes at every varint/zigzag boundary: one-byte values, the edge
   of the native zigzag fast path (2^60), and the extremes, whose zigzag
   takes the longest varints. *)
let edge_ints =
  [ 0; 1; -1; 63; -64; 64; 1 lsl 60; -(1 lsl 60); (1 lsl 60) - 1;
    -(1 lsl 60) - 1; 1 lsl 61; -(1 lsl 61); max_int; min_int ]

let int_gen = QCheck2.Gen.(oneof [ small_signed_int; oneofl edge_ints; int ])
let nat_gen = QCheck2.Gen.map (fun v -> v land max_int) int_gen

let vn_gen =
  QCheck2.Gen.(
    oneof
      [
        map2 (fun pos idx -> Vn.logged ~pos ~idx) int_gen nat_gen;
        map2 (fun thread seq -> Vn.ephemeral ~thread ~seq) nat_gen nat_gen;
      ])

let payload_gen =
  QCheck2.Gen.(
    frequency
      [
        (2, return Payload.tombstone);
        (8, map Payload.value (string_size (int_bound 24)));
        (* large enough to grow the encoder's buffer *)
        (1, map Payload.value (string_size (int_range 2000 5000)));
      ])

(* A node of some earlier state: the encoder writes it as a reference. *)
let ref_gen =
  QCheck2.Gen.map2
    (fun key vn ->
      Node.make ~key ~payload:Payload.tombstone ~left:Node.empty
        ~right:Node.empty ~vn ~cv:vn ~ssv:None ~scv:None ~altered:false
        ~depends_on_content:false ~depends_on_structure:false
        ~owner:Node.state_owner)
    int_gen vn_gen

(* Arbitrary draft trees — any flags, sources and children, not only what
   an executor builds; a root that is not a draft node must be rejected
   by both encoders. *)
let tree_gen =
  QCheck2.Gen.(
    sized_size (int_bound 24)
    @@ fix (fun self n ->
           if n = 0 then frequency [ (1, return Node.empty); (2, ref_gen) ]
           else
             let* k = int_bound (n - 1) in
             let* left = self k and* right = self (n - 1 - k) in
             let* key = int_gen and* payload = payload_gen in
             let* ssv = opt vn_gen and* scv = opt vn_gen in
             let+ f = int_bound 7 in
             let vn = Vn.logged ~pos:max_int ~idx:0 in
             Node.make ~key ~payload ~left ~right ~vn ~cv:vn ~ssv ~scv
               ~altered:(f land 1 <> 0) ~depends_on_content:(f land 2 <> 0)
               ~depends_on_structure:(f land 4 <> 0) ~owner:I.draft_owner))

let isolation_gen =
  QCheck2.Gen.oneofl [ I.Serializable; I.Snapshot_isolation; I.Read_committed ]

let random_draft_gen =
  QCheck2.Gen.(
    let* snapshot = int_gen and* server = nat_gen and* txn_seq = nat_gen in
    let+ isolation = isolation_gen and+ root = tree_gen in
    { I.snapshot; server; txn_seq; isolation; root })

let exec_snapshot = Helpers.genesis ~gap:3 500

(* Executor-built drafts: read sets (elided payloads), writes, deletes
   (tombstones) at every isolation level; a read-only one that logs
   nothing becomes the empty root. *)
let executed_draft_gen =
  QCheck2.Gen.(
    let key = int_bound 499 in
    let* isolation = isolation_gen and* snapshot_pos = int_gen in
    let* reads = list_size (int_range 0 6) key
    and* writes = list_size (int_range 0 6) key in
    let+ dels = list_size (int_range 0 3) key in
    let e =
      Executor.begin_txn ~snapshot_pos ~snapshot:exec_snapshot ~server:3
        ~txn_seq:17 ~isolation ()
    in
    List.iter (fun k -> ignore (Executor.read e (k * 3))) reads;
    List.iter (fun k -> Executor.write e (k * 3) "w") writes;
    List.iter (fun k -> Executor.delete e (k * 3)) dels;
    match Executor.finish e with
    | Some d -> d
    | None ->
        { I.snapshot = snapshot_pos; server = 3; txn_seq = 17; isolation;
          root = Node.empty })

let prop_encode_matches_oracle =
  let outcome encode d =
    match encode d with
    | s -> Ok s
    | exception Codec.Corrupt m -> Error m
  in
  (* one encoder across all cases: reuse and growth are covered *)
  let enc = Codec.Encoder.create () in
  QCheck2.Test.make ~name:"encode = Wire.Writer oracle, byte for byte"
    ~count:400
    (QCheck2.Gen.oneof [ random_draft_gen; executed_draft_gen ])
    (fun d ->
      let want = outcome Oracle.encode d in
      outcome Codec.encode d = want
      && outcome (Codec.Encoder.encode enc) d = want)

(* [peek_snapshot] reads exactly the snapshot the parser reads, and
   allocates nothing. *)
let prop_peek_snapshot =
  let resolve ~snapshot:_ ~key ~vn:_ =
    match Tree.find exec_snapshot key with Some n -> n | None -> Node.empty
  in
  QCheck2.Test.make ~name:"peek_snapshot = View.snapshot, allocation-free"
    ~count:200
    executed_draft_gen
    (fun d ->
      match d.I.root == Node.empty with
      | true -> true
      | false ->
          let bytes = Codec.encode d in
          let parsed = Codec.decode_lazy ~pos:11 ~peer:exec_snapshot ~resolve bytes in
          let w0 = Gc.minor_words () in
          let a = Codec.peek_snapshot bytes in
          let words = Gc.minor_words () -. w0 in
          if words <> 0. then
            QCheck2.Test.fail_reportf "peek_snapshot allocated %.0f words" words;
          a = parsed.I.snapshot && a = d.I.snapshot)

let () =
  Alcotest.run "codec"
    [
      ( "intentions",
        [
          Alcotest.test_case "roundtrip = assign" `Quick
            test_roundtrip_matches_assign;
          Alcotest.test_case "SI smaller than SR" `Quick
            test_roundtrip_snapshot_isolation_smaller;
          Alcotest.test_case "rejects corruption" `Quick
            test_decode_rejects_corruption;
          Alcotest.test_case "untouched regions are refs" `Quick
            test_read_only_regions_become_refs;
          Alcotest.test_case "node count must match the records" `Quick
            test_node_count_mismatch;
          Alcotest.test_case "100,000-deep chain round-trips" `Quick
            test_deep_nesting;
          Alcotest.test_case "wrapped ref index: both reject alike" `Quick
            test_wrapped_ref_idx_rejected;
        ] );
      ( "pooled paths",
        [
          Alcotest.test_case "peek_snapshot" `Quick test_peek_snapshot;
          Alcotest.test_case "Encoder = encode" `Quick
            test_encoder_matches_encode;
          Alcotest.test_case "Encoder steady state allocates nothing extra"
            `Quick test_encoder_steady_state_allocation;
        ] );
      ( "blocks",
        [
          Alcotest.test_case "single block" `Quick test_blocks_roundtrip_single;
          Alcotest.test_case "multi block" `Quick test_blocks_roundtrip_multi;
          Alcotest.test_case "interleaved servers" `Quick
            test_blocks_interleaved_servers;
          Alcotest.test_case "checksum" `Quick test_blocks_checksum_detects_flip;
          Alcotest.test_case "rejected first fragment" `Quick
            test_blocks_rejected_first_fragment;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_roundtrip; prop_encode_matches_oracle; prop_peek_snapshot ] );
    ]
