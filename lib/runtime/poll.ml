external tw_poll : Unix.file_descr array -> int array -> int -> int -> int
  = "tw_poll"

type error = [ `Intr | `Error ]

let wait ~fds ~revents ~timeout_us =
  let n = Array.length fds in
  if Array.length revents < n then invalid_arg "Poll.wait: revents too short";
  match tw_poll fds revents n timeout_us with
  | r when r >= 0 -> Ok r
  | -3 -> Error `Intr
  | _ -> Error `Error

(* to whole nanoseconds first, so a span that is an exact number of
   microseconds (every [Time.t] span is) does not gain one from float
   error in the product *)
let us_of_span span =
  if span <= 0.0 then 0
  else Stdlib.max 1 (int_of_float (ceil (Float.round (span *. 1e9) /. 1e3)))
