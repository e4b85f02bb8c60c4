type backend =
  | Sequential
  | Parallel of { domains : int }
  | Pipelined of { domains : int }

let sequential = Sequential

let pipelined ~domains =
  if domains < 1 then invalid_arg "Runtime.pipelined: domains";
  Pipelined { domains }
