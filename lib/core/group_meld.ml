open Hyder_tree
module Intention = Hyder_codec.Intention

type decided_at = At_premeld | At_group_meld | At_final_meld

type member = {
  seq : int;
  intention : Intention.t;
  premeld_input : int option;
  aborted : (Meld.abort_reason * decided_at) option;
}

type group = { members : member list; root : Node.tree; snapshot : int }

let alive m = Option.is_none m.aborted

let single m =
  {
    members = [ m ];
    root = (if alive m then m.intention.Intention.root else Node.empty);
    snapshot = m.intention.Intention.snapshot;
  }

let survivors g =
  List.filter_map
    (fun m -> if alive m then Some m.intention.Intention.pos else None)
    g.members

let rec last = function [ x ] -> x | _ :: tl -> last tl | [] -> assert false

let combine ~alloc ~counters first second =
  let members = first.members @ second.members in
  match (survivors first, survivors second) with
  | [], _ -> { second with members }
  | _, [] -> { first with members }
  | first_alive, second_alive -> begin
      (* Meld the later group's tree into the earlier one's, treating the
         earlier tree as the "state" side that still carries transaction
         metadata. *)
      let out_owner = last second_alive in
      counters.Counters.intentions <- counters.Counters.intentions + 1;
      match
        Meld.meld
          ~mode:(Meld.Transaction { out_owner })
          ~state_is_intention:true ~intention_snapshot:second.snapshot
          ~state_snapshot:first.snapshot ~members:(first_alive @ second_alive)
          ~alloc ~counters ~intention:second.root ~state:first.root ()
      with
      | Meld.Merged root ->
          { members; root; snapshot = min first.snapshot second.snapshot }
      | Meld.Conflict reason ->
          (* The earlier member conflicts with the later one: the later
             members abort and the earlier group survives alone (Figure 8:
             no fate sharing in this direction). *)
          let abort m =
            if alive m then { m with aborted = Some (reason, At_group_meld) }
            else m
          in
          {
            first with
            members = first.members @ List.map abort second.members;
          }
    end
