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

(* Trial-meld [intention] against its designated input state, read from
   the live store, with the premeld thread's own allocator. *)
let run ?mz config ~allocs ~counters ~states ~seq (intention : Intention.t) =
  let m = input_seq config ~seq in
  if m <= State_store.seq_of_pos states intention.snapshot then
    Unchanged intention
  else begin
    let state = State_store.require states ~stage:"premeld" m in
    let thread = thread_for config ~seq in
    counters.Counters.intentions <- counters.Counters.intentions + 1;
    match
      Meld.meld
        ~mode:(Meld.Transaction { out_owner = intention.pos })
        ?intention_view:intention.view ?mz ~members:[ intention.pos ]
        ~alloc:allocs.(thread - 1) ~counters ~intention:intention.root ~state
        ()
    with
    (* A premelded intention is a real tree from here on — drop the
       view so no one walks stale wire bytes. *)
    | Meld.Merged root -> Premelded ({ intention with root; view = None }, m)
    | Meld.Conflict reason -> Dead reason
  end
