type stage = {
  mutable intentions : int;
  mutable nodes_visited : int;
  mutable ephemerals : int;
  mutable grafts : int;
  mutable aborts : int;
  mutable seconds : float;
  mutable minor_words : int;
}

let make_stage () =
  {
    intentions = 0;
    nodes_visited = 0;
    ephemerals = 0;
    grafts = 0;
    aborts = 0;
    seconds = 0.0;
    minor_words = 0;
  }

let copy_stage s = { s with intentions = s.intentions }

type t = {
  deserialize : stage;
  premeld : stage;
  group_meld : stage;
  final_meld : stage;
  mutable committed : int;
  mutable aborted : int;
  conflict_zone : Hyder_util.Stats.Summary.t;
  fm_nodes_per_txn : Hyder_util.Stats.Summary.t;
  intention_bytes : Hyder_util.Stats.Summary.t;
}

let create () =
  {
    deserialize = make_stage ();
    premeld = make_stage ();
    group_meld = make_stage ();
    final_meld = make_stage ();
    committed = 0;
    aborted = 0;
    conflict_zone = Hyder_util.Stats.Summary.create ();
    fm_nodes_per_txn = Hyder_util.Stats.Summary.create ();
    intention_bytes = Hyder_util.Stats.Summary.create ();
  }

let premeld_total t = copy_stage t.premeld

let copy t =
  {
    deserialize = copy_stage t.deserialize;
    premeld = copy_stage t.premeld;
    group_meld = copy_stage t.group_meld;
    final_meld = copy_stage t.final_meld;
    committed = t.committed;
    aborted = t.aborted;
    conflict_zone = Hyder_util.Stats.Summary.copy t.conflict_zone;
    fm_nodes_per_txn = Hyder_util.Stats.Summary.copy t.fm_nodes_per_txn;
    intention_bytes = Hyder_util.Stats.Summary.copy t.intention_bytes;
  }
