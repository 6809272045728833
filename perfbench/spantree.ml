type node = { name : string; dur : float; children : node list }

(* Post-order rebuild: a closing span at depth d adopts every pending
   span deeper than d, which are exactly its unclaimed descendants'
   roots — its children. *)
let of_events events =
  let pending =
    List.fold_left
      (fun pending -> function
        | Obs.Span { name; path; elapsed_ns; _ } ->
            let depth = List.length path in
            let rec adopt kids = function
              | (d, kid) :: rest when d > depth -> adopt (kid :: kids) rest
              | rest -> (kids, rest)
            in
            let children, rest = adopt [] pending in
            let dur = Int64.to_float elapsed_ns *. 1e-9 in
            (depth, { name; dur; children }) :: rest
        | Obs.Count _ | Obs.Gauge _ -> pending)
      [] events
  in
  List.rev_map snd pending

let self n =
  let covered = List.fold_left (fun acc c -> acc +. c.dur) 0. n.children in
  n.dur -. Float.min n.dur covered

let nodes name roots =
  let rec walk acc n =
    let acc = if n.name = name then n :: acc else acc in
    List.fold_left walk acc n.children
  in
  List.rev (List.fold_left walk [] roots)

let sum f name roots = List.fold_left (fun acc n -> acc +. f n) 0. (nodes name roots)
let total = sum (fun n -> n.dur)
let self_total = sum self

let counts name events =
  List.filter_map
    (function Obs.Count { name = m; n; _ } when m = name -> Some n | _ -> None)
    events

let count_sum name events = List.fold_left ( + ) 0 (counts name events)
let count_events name events = List.length (counts name events)
