open Hyder_tree

(** Group meld (Section 4).

    Combines adjacent intentions into one {e group intention} so final meld
    processes their overlapping root paths once instead of twice.  Groups
    are formed deterministically by position in the intention sequence
    (numbers [g*k .. g*k + g - 1] form group [k]).

    Fate sharing: the group commits or aborts as a unit — except that when
    an earlier member's update conflicts with a later member, the later
    member alone aborts (it would have aborted anyway: the earlier member
    is inside its conflict zone, Figure 8) and the survivors form the
    group.

    Every intention is one {!member} from premeld to decision: premeld or
    group meld may stamp it [aborted], and final meld decides the rest. *)

type decided_at = At_premeld | At_group_meld | At_final_meld

type member = {
  seq : int;
  intention : Hyder_codec.Intention.t;
  premeld_input : int option;
      (** input-state seq if premeld merged the member *)
  aborted : (Meld.abort_reason * decided_at) option;
      (** [None] while the member survives into final meld *)
}

type group = {
  members : member list;  (** every folded member, in log order *)
  root : Node.tree;  (** the survivors' tree; Empty iff no survivors *)
  snapshot : int;
      (** earliest survivor snapshot (log position); read only while the
          group has survivors *)
}

val single : member -> group
(** A one-member group (group meld off, or the member being folded in). *)

val survivors : group -> int list
(** Log positions of the members not yet aborted: the "inside" owners
    {!Meld.meld} takes as [members]. *)

val combine :
  alloc:Vn.Alloc.t ->
  counters:Counters.stage ->
  group ->
  group ->
  group
(** Meld the second group's tree into the first's, in log order: the
    first group's tree is the state side of {!Meld.meld}, the second's
    its intention side. *)
