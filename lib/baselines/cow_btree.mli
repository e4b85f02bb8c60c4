open Hyder_tree

(** Copy-on-write B-tree: the index design Hyder rejected.

    Section 2 of the paper: the database tree could be "a binary search
    tree or B-tree", but "since it operates on main memory structures and
    is serialized to a sequential log (rather than written out in
    fixed-size pages), a binary tree consumes less storage per record than
    a B-tree".  Under copy-on-write every update copies the whole
    root-to-leaf path; a B-tree path is short but each copied node carries
    [fanout] keys and pointers, so the bytes per update — and hence the
    intention size, the quantity meld's speed depends on — are much larger.

    This is a real, full B-tree (bulk load, lookup, update, insert with
    node splits), instrumented to report exactly the copied-path footprint
    so the `abl-index-size` benchmark can regenerate the design argument. *)

type t

val create : fanout:int -> (Key.t * string) array -> t
(** Bulk-load from a strictly increasing key array.  [fanout] is the
    maximum number of keys per node (>= 4). *)

val lookup : t -> Key.t -> string option
val mem : t -> Key.t -> bool

type cow_stats = {
  nodes_copied : int;  (** nodes rewritten by path copying *)
  bytes_copied : int;  (** serialized footprint of those nodes *)
}

val update : t -> Key.t -> string -> t * cow_stats
(** Copy-on-write update of an existing key (raises [Not_found]
    otherwise). *)

val insert : t -> Key.t -> string -> t * cow_stats
(** Copy-on-write insert of a fresh key, splitting full nodes as B-trees
    do.  Raises [Invalid_argument] if the key exists. *)

val size : t -> int
val depth : t -> int
val to_alist : t -> (Key.t * string) list

val validate : t -> (unit, string) result
(** Checks key ordering, node occupancy bounds and uniform leaf depth. *)
