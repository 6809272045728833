(** Span trees rebuilt from an [Obs] event stream, with self times.

    [Obs] emits a span when it closes, carrying the names of the spans
    enclosing it, and buffered task contexts are drained in task order
    before their parent closes — so the stream is a post-order walk of
    the span tree and the tree can be rebuilt without span ids. *)

type node = {
  name : string;
  dur : float;  (** seconds *)
  children : node list;  (** in emission order *)
}

val of_events : Obs.event list -> node list
(** The root spans of a stream, in emission order.  Count and gauge
    events are ignored. *)

val self : node -> float
(** Duration minus the time covered by the node's children.  Spans
    carry durations but no start times, so children are taken to cover
    the sum of their durations, capped at the parent's duration:
    children that ran in parallel on other domains cannot make self
    time negative. *)

val nodes : string -> node list -> node list
(** Every node of that name, anywhere in the forest, in pre-order. *)

val total : string -> node list -> float
(** Sum of the durations of {!nodes}. *)

val self_total : string -> node list -> float
(** Sum of the self times of {!nodes}. *)

val count_sum : string -> Obs.event list -> int
(** Sum of the values of the [Count] events of that name. *)

val count_events : string -> Obs.event list -> int
(** Number of [Count] events of that name. *)
