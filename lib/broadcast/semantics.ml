type ordering = Unordered | Total | Timed
type atomicity = Weak | Strong | Strict
type t = { ordering : ordering; atomicity : atomicity }

let all =
  List.concat_map
    (fun ordering ->
      List.map
        (fun atomicity -> { ordering; atomicity })
        [ Weak; Strong; Strict ])
    [ Unordered; Total; Timed ]

let unordered_weak = { ordering = Unordered; atomicity = Weak }
let total_strong = { ordering = Total; atomicity = Strong }
let equal a b = a.ordering = b.ordering && a.atomicity = b.atomicity

let ordering_to_string = function
  | Unordered -> "unordered"
  | Total -> "total"
  | Timed -> "timed"

let atomicity_to_string = function
  | Weak -> "weak"
  | Strong -> "strong"
  | Strict -> "strict"

let pp ppf t =
  Fmt.pf ppf "%s/%s"
    (ordering_to_string t.ordering)
    (atomicity_to_string t.atomicity)
