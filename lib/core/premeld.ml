module Intention = Hyder_codec.Intention

type config = { threads : int; distance : int }

let default_config = { threads = 5; distance = 10 }

let thread_for config ~seq =
  if config.threads <= 0 then invalid_arg "Premeld.thread_for";
  1 + (seq mod config.threads)

let input_seq config ~seq = seq - (config.threads * config.distance) - 1

(* Trial-meld [intention] against its designated input state, read from
   the live store, with the premeld thread's own allocator. *)
let run config ~allocs ~counters ~states ~seq (intention : Intention.t) =
  let member =
    { Group_meld.seq; intention; premeld_input = None; aborted = None }
  in
  let m = input_seq config ~seq in
  if m <= State_store.seq_of_pos states intention.snapshot then member
  else begin
    let state = State_store.require states ~stage:"premeld" m in
    let thread = thread_for config ~seq in
    counters.Counters.intentions <- counters.Counters.intentions + 1;
    match
      Meld.meld
        ~mode:(Meld.Transaction { out_owner = intention.pos })
        ~members:[ intention.pos ] ~alloc:allocs.(thread - 1) ~counters
        ~intention:intention.root ~state ()
    with
    | Meld.Merged root ->
        {
          member with
          intention = { intention with root };
          premeld_input = Some m;
        }
    | Meld.Conflict reason ->
        { member with aborted = Some (reason, Group_meld.At_premeld) }
  end
