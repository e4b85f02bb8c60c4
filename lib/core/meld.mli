open Hyder_tree

(** The meld operator: optimistic concurrency control by merging trees.

    [meld] takes an intention tree and a database-state tree and either
    detects a conflict (the transaction aborts) or produces the merged
    result (Section 2, Appendix A).  Per the paper's Section 3.3 insight,
    the {e same} operator implements final meld, premeld and group meld —
    only the interpretation of its inputs and output changes:

    - {b Final meld}: state side is the LCS, output is the next database
      state.  Read-only subtrees that match the LCS resolve to the LCS's
      nodes and ephemeral nodes carry no transaction metadata.
    - {b Premeld} ([mode = Transaction]): state side is an older committed
      state; the output is re-interpreted as an intention.  Read-only
      subtrees resolve to the {e intention's} nodes (the paper's one-line
      change to [8]) and ephemeral nodes carry refreshed ssv/scv metadata
      and the original dependency flags, so a later meld revalidates only
      the remaining conflict zone.
    - {b Group meld} ([mode = Transaction], [state_is_intention = true]):
      the state side is itself the earlier intention of the pair; merged
      nodes combine both transactions' dependency metadata, keeping the
      {e earlier} source versions so the group's conflict zone is the union
      of its members' (Section 4).

    Conflict rules (content-version formulation; see [Node] and DESIGN.md):
    a node the transaction wrote or validated-read conflicts iff the state
    holds a content version different from the one recorded at execution
    time; a structure-dependent node conflicts iff its source subtree
    version is no longer current; an insert conflicts iff the key
    meanwhile exists. *)

type mode =
  | Final
  | Transaction of { out_owner : int }
      (** [out_owner] tags ephemeral nodes so a later meld treats them as
          part of the (substitute) intention. *)

type abort_reason =
  | Write_conflict of Key.t  (** write–write: key written in the conflict zone *)
  | Read_conflict of Key.t  (** read–write: validated read overwritten *)
  | Phantom_conflict of Key.t
      (** structural dependency violated (range scan / absent-key read) *)

val abort_reason_to_string : abort_reason -> string

type result = Merged of Node.tree | Conflict of abort_reason

exception Corrupt_intention of string
(** Raised on malformed intention metadata — an internal-invariant
    violation, never an OCC conflict. *)

val meld :
  mode:mode ->
  ?state_is_intention:bool ->
  ?intention_snapshot:int ->
  ?state_snapshot:int ->
  members:int list ->
  alloc:Vn.Alloc.t ->
  counters:Counters.stage ->
  intention:Node.tree ->
  state:Node.tree ->
  unit ->
  result
(** [members] are the intention ids (log positions) whose nodes count as
    "inside" the intention side; [alloc] supplies deterministic ephemeral
    VNs (Section 3.4); [counters] accumulates visited/created/graft counts.
    [intention_snapshot]/[state_snapshot] are the members' snapshot log
    positions and matter only under group meld ([state_is_intention]),
    where they decide which side's source metadata refers to the earlier
    history and whether a structural mismatch is a committed change. *)
