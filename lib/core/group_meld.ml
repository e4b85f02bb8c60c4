open Hyder_tree

type member = {
  seq : int;
  intention : Hyder_codec.Intention.t;
  premeld_input : int option;
}

type group = {
  members : member list;
  early_aborts : (member * Meld.abort_reason * [ `Premeld | `Group ]) list;
  root : Node.tree;
  member_positions : int list;
  snapshot : int;
}

let single ?premeld_input ~seq intention =
  {
    members = [ { seq; intention; premeld_input } ];
    early_aborts = [];
    root = intention.Hyder_codec.Intention.root;
    member_positions = [ intention.Hyder_codec.Intention.pos ];
    snapshot = intention.Hyder_codec.Intention.snapshot;
  }

let dead ?premeld_input ~seq intention reason =
  {
    members = [];
    early_aborts = [ ({ seq; intention; premeld_input }, reason, `Premeld) ];
    root = Node.empty;
    member_positions = [];
    snapshot = intention.Hyder_codec.Intention.snapshot;
  }

let combine ~alloc ~counters first second =
  let early_aborts = first.early_aborts @ second.early_aborts in
  match (first.members, second.members) with
  | [], _ -> { second with early_aborts }
  | _, [] -> { first with early_aborts }
  | _, second_members -> begin
      (* Meld the later group's tree into the earlier one's, treating the
         earlier tree as the "state" side that still carries transaction
         metadata. *)
      let out_owner =
        match List.rev second.member_positions with
        | last :: _ -> last
        | [] -> assert false
      in
      let members = first.member_positions @ second.member_positions in
      counters.Counters.intentions <- counters.Counters.intentions + 1;
      match
        Meld.meld
          ~mode:(Meld.Transaction { out_owner })
          ~state_is_intention:true ~intention_snapshot:second.snapshot
          ~state_snapshot:first.snapshot ~members ~alloc ~counters
          ~intention:second.root ~state:first.root ()
      with
      | Meld.Merged root ->
          {
            members = first.members @ second_members;
            early_aborts;
            root;
            member_positions = members;
            snapshot = min first.snapshot second.snapshot;
          }
      | Meld.Conflict reason ->
          (* The earlier member conflicts with the later one: the later
             members abort and the earlier group survives alone (Figure 8:
             no fate sharing in this direction). *)
          {
            first with
            early_aborts =
              early_aborts
              @ List.map (fun m -> (m, reason, `Group)) second_members;
          }
    end
