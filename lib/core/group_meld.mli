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
    group. *)

type member = {
  seq : int;
  intention : Hyder_codec.Intention.t;
  premeld_input : int option;
      (** input-state seq if the member was premelded *)
}

type group = {
  members : member list;  (** surviving members, in log order *)
  early_aborts : (member * Meld.abort_reason * [ `Premeld | `Group ]) list;
      (** members killed while forming the group, and by which stage *)
  root : Node.tree;  (** Empty iff no survivors *)
  member_positions : int list;  (** "inside" owners for final meld *)
  snapshot : int;  (** earliest member snapshot (log position) *)
}

val single : ?premeld_input:int -> seq:int -> Hyder_codec.Intention.t -> group
(** A trivial group (group meld off, or a lone trailing intention). *)

val dead :
  ?premeld_input:int ->
  seq:int ->
  Hyder_codec.Intention.t ->
  Meld.abort_reason ->
  group
(** A group whose only member was already killed by premeld. *)

val combine :
  alloc:Vn.Alloc.t ->
  counters:Counters.stage ->
  group ->
  group ->
  group
(** Meld the second group's tree into the first's, in log order: the
    first group's tree is the state side of {!Meld.meld}, the second's
    its intention side. *)
