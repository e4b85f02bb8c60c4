module Intention = Hyder_codec.Intention

type config = { threads : int; distance : int }

let default_config = { threads = 5; distance = 10 }

let thread_for config ~seq =
  if config.threads <= 0 then invalid_arg "Premeld.thread_for";
  1 + (seq mod config.threads)

let input_seq config ~seq = seq - (config.threads * config.distance) - 1

type outcome =
  | Unchanged of Intention.t
  | Premelded of Intention.t * int
  | Dead of Meld.abort_reason

(* Pure trial-meld core: everything it touches is either owned by the
   caller's premeld thread (alloc, counters shard) or immutable (the input
   state tree, the intention), so it can run on any domain. *)
let trial ?mz config ~snap_seq ~lookup ~alloc
    ~counters ~seq (intention : Intention.t) =
  let m = input_seq config ~seq in
  if m <= snap_seq then Unchanged intention
  else begin
    let state =
      match lookup m with
      | Some s -> s
      | None ->
          failwith
            (Printf.sprintf "Premeld.trial: state %d not retained (seq %d)" m
               seq)
    in
    counters.Counters.intentions <- counters.Counters.intentions + 1;
    match
      Meld.meld
        ~mode:(Meld.Transaction { out_owner = intention.pos })
        ?intention_view:intention.view ?mz ~members:[ intention.pos ] ~alloc
        ~counters ~intention:intention.root ~state ()
    with
    (* A premelded intention is a real tree from here on — drop the
       view so no one walks stale wire bytes. *)
    | Meld.Merged root -> Premelded ({ intention with root; view = None }, m)
    | Meld.Conflict reason -> Dead reason
  end

(* Scheduling shell for the inline (sequential) path: resolve the snapshot
   sequence number and the designated input state against the live store. *)
let run ?mz config ~allocs ~shards ~states ~seq (intention : Intention.t)
    =
  let snap_seq = State_store.seq_of_pos states intention.snapshot in
  let thread = thread_for config ~seq in
  trial ?mz config ~snap_seq
    ~lookup:(fun m -> Some (State_store.require states ~stage:"premeld" m))
    ~alloc:allocs.(thread - 1)
    ~counters:shards.(thread - 1) ~seq intention
