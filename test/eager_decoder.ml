(* The reference decoder: builds every node of an intention through
   [Wire.Reader], resolving every reference with the resolver alone.  No
   pipeline stage runs it.  It is the specification
   [Codec.decode] (cursor readers, peer-threaded binding) is tested
   against: node for node in post order (every field, with references
   and elided payloads physically the snapshot's objects) and message
   for message on corrupt input. *)

open Hyder_tree
open Node
module Codec = Hyder_codec.Codec
module Intention = Hyder_codec.Intention
module Wire = Hyder_util.Wire

exception Corrupt = Codec.Corrupt

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

(* Zigzag mapping so small negative values (genesis positions, sentinel
   snapshots) stay one byte. *)
let unzigzag v =
  Int64.logxor
    (Int64.shift_right_logical v 1)
    (Int64.neg (Int64.logand v 1L))

let r_zint r = Int64.to_int (unzigzag (Wire.Reader.varint64 r))

let r_vn r =
  match Wire.Reader.u8 r with
  | 0 ->
      let pos = r_zint r in
      let idx = Wire.Reader.varint r in
      Vn.logged ~pos ~idx
  | 1 ->
      let thread = Wire.Reader.varint r in
      let seq = Wire.Reader.varint r in
      Vn.ephemeral ~thread ~seq
  | tag -> corrupt "bad VN tag %d" tag

let isolation_of_int = function
  | 0 -> Intention.Serializable
  | 1 -> Intention.Snapshot_isolation
  | 2 -> Intention.Read_committed
  | i -> corrupt "bad isolation %d" i

(* Child descriptor tags. *)
let tag_empty = 0
let tag_inside = 1
let tag_ref = 2

(* [decode_indexed ~pos ~resolve s] rebuilds the intention appended at log
   position [pos], and also returns which nodes' payloads were elided
   (bound from the snapshot), indexed by post-order position.  Inside nodes get owner [pos] and versions [(pos, idx)],
   numbered in post order as [Intention.assign] numbers them. *)
let decode_indexed ~pos ~resolve s =
  let len = String.length s in
  let r = Wire.Reader.of_string s in
  try
    let snapshot = r_zint r in
    let server = Wire.Reader.varint r in
    let txn_seq = Wire.Reader.varint r in
    let isolation = isolation_of_int (Wire.Reader.u8 r) in
    let node_count = Wire.Reader.varint r in
    if node_count < 0 || node_count > len then
      corrupt "implausible node count %d" node_count;
    let elided = Array.make (max 1 node_count) false in
    let records = ref 0 and next_idx = ref 0 in
    let count_mismatch () =
      corrupt "node count %d does not match the records" node_count
    in
    (* [None]: an inside child, whose record comes next. *)
    let r_child () =
      match Wire.Reader.u8 r with
      | t when t = tag_empty -> Some Node.empty
      | t when t = tag_inside -> None
      | t when t = tag_ref ->
          let vn = r_vn r in
          let key = r_zint r in
          let resolved = resolve ~snapshot ~key ~vn in
          if resolved == Node.empty then
            corrupt "unresolvable reference to key %d" key
          else if not (Vn.equal (Node.vn resolved) vn) then
            corrupt "reference to key %d resolved to wrong version" key;
          Some resolved
      | t -> corrupt "bad child tag %d" t
    in
    let ob = Meta.owner_bits pos in
    (* One record, then its inside subtrees; the node's index is its
       post-order position, known once both subtrees are built. *)
    let rec r_node () =
      if !records = node_count then count_mismatch ();
      incr records;
      let key = r_zint r in
      let flags = Wire.Reader.u8 r in
      (* Straight-line part reads into plain ints — no option or boxed VN
         per source version. *)
      let payload_str =
        if flags land (32 lor 64) = 0 then Wire.Reader.bytes r else ""
      in
      let has_ssv = flags land 8 <> 0 in
      let ssv_eph =
        has_ssv
        &&
        match Wire.Reader.u8 r with
        | 0 -> false
        | 1 -> true
        | tag -> corrupt "bad VN tag %d" tag
      in
      let ssv_a =
        if has_ssv then if ssv_eph then Wire.Reader.varint r else r_zint r
        else 0
      in
      let ssv_b = if has_ssv then Wire.Reader.varint r else 0 in
      let has_scv = flags land 16 <> 0 in
      let scv_eph =
        has_scv
        &&
        match Wire.Reader.u8 r with
        | 0 -> false
        | 1 -> true
        | tag -> corrupt "bad VN tag %d" tag
      in
      let scv_a =
        if has_scv then if scv_eph then Wire.Reader.varint r else r_zint r
        else 0
      in
      let scv_b = if has_scv then Wire.Reader.varint r else 0 in
      let payload =
        if flags land 32 <> 0 then Payload.Tombstone
        else if flags land 64 = 0 then Payload.Value payload_str
        else begin
          (* elided: recovered via ssv *)
          if not has_ssv then
            corrupt "elided payload on a node without a source";
          let source_vn =
            if ssv_eph then Vn.ephemeral ~thread:ssv_a ~seq:ssv_b
            else Vn.logged ~pos:ssv_a ~idx:ssv_b
          in
          let m = resolve ~snapshot ~key ~vn:source_vn in
          if m == Node.empty then
            corrupt "elided payload: key %d missing from snapshot" key
          else if not (Vn.equal (Node.vn m) source_vn) then
            corrupt "elided payload: source of key %d is version %s" key
              (Vn.to_string (Node.vn m));
          m.payload
        end
      in
      let left = r_child () in
      let right = r_child () in
      let altered = flags land 1 <> 0 in
      if (not altered) && not has_scv then
        corrupt "unaltered node %d lacks a content version" key;
      let left = match left with Some n -> n | None -> r_node () in
      let right = match right with Some n -> n | None -> r_node () in
      let idx = !next_idx in
      incr next_idx;
      let meta =
        ob lor (flags land 0x7)
        lor (if has_ssv then
               if ssv_eph then Meta.ssv_present lor Meta.ssv_ephemeral
               else Meta.ssv_present
             else 0)
        lor
        if has_scv then
          if scv_eph then Meta.scv_present lor Meta.scv_ephemeral
          else Meta.scv_present
        else 0
      in
      (* vn := (pos, idx); an altered node's cv is its vn, an unaltered
         one's is its scv *)
      let n =
        if altered then
          Node.pack ~key ~payload ~left ~right ~vn_a:pos ~vn_b:idx ~cv_a:pos
            ~cv_b:idx ~meta ~ssv_a ~ssv_b ~scv_a ~scv_b
        else
          Node.pack ~key ~payload ~left ~right ~vn_a:pos ~vn_b:idx ~cv_a:scv_a
            ~cv_b:scv_b
            ~meta:(if scv_eph then meta lor Meta.cv_ephemeral else meta)
            ~ssv_a ~ssv_b ~scv_a ~scv_b
      in
      elided.(idx) <- flags land (32 lor 64) = 64;
      n
    in
    (* The header count is checked against the records in both
       directions: a record past it fails in [r_node], too few fail here. *)
    let root = if Wire.Reader.remaining r > 0 then r_node () else Node.empty in
    if !records <> node_count then count_mismatch ();
    if Wire.Reader.remaining r <> 0 then corrupt "trailing bytes";
    ( {
        Intention.pos;
        snapshot;
        server;
        txn_seq;
        isolation;
        root;
        node_count;
        byte_size = len;
      },
      elided )
  with Wire.Truncated -> corrupt "truncated intention"

let decode ~pos ~resolve s = fst (decode_indexed ~pos ~resolve s)

(* The first disagreement between [want], the reference tree of the
   intention at [pos], and [got], node by node in post order: key, meta,
   version words and payload of every inside node.  A child outside the
   intention (empty, or a reference into the snapshot) and a payload
   [elided] marks must be physically the object [want] holds — the
   snapshot's own. *)
let disagreement ~pos ~elided (want : Node.tree) (got : Node.tree) =
  let idx = ref 0 in
  let exception Differ of string in
  let differ what = raise (Differ (Printf.sprintf "node %d: %s" !idx what)) in
  let rec go (w : Node.tree) (g : Node.tree) =
    if w == Node.empty || Node.owner w <> pos then begin
      if g != w then differ "a child outside the intention is not the same object"
    end
    else if g == Node.empty || Node.owner g <> pos then
      differ "an inside node is missing"
    else begin
      go w.left g.left;
      go w.right g.right;
      if w.key <> g.key then differ "key";
      if w.meta <> g.meta then differ "meta";
      if
        not
          (w.vn_a = g.vn_a && w.vn_b = g.vn_b && w.cv_a = g.cv_a
         && w.cv_b = g.cv_b && w.ssv_a = g.ssv_a && w.ssv_b = g.ssv_b
         && w.scv_a = g.scv_a && w.scv_b = g.scv_b)
      then differ "version words";
      if elided.(!idx) then begin
        if g.payload != w.payload then
          differ "elided payload is not the snapshot's object"
      end
      else if not (Payload.equal g.payload w.payload) then differ "payload";
      incr idx
    end
  in
  match go want got with () -> None | exception Differ why -> Some why

(* How [got], some decoder's result for [s] at [pos], differs from the
   reference decode: header fields, then [disagreement]; [None] when it
   does not.  Raises [Corrupt] when the reference rejects [s]. *)
let diff_decode ~pos ~resolve s (got : Intention.t) =
  let want, elided = decode_indexed ~pos ~resolve s in
  if
    not
      (got.snapshot = want.snapshot && got.server = want.server
     && got.txn_seq = want.txn_seq && got.isolation = want.isolation
     && got.node_count = want.node_count && got.byte_size = want.byte_size)
  then Some "header"
  else disagreement ~pos ~elided want.root got.root
