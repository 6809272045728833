type selection =
  | Pearson_scalar
  | Pearson_batched
  | Profiled of Profile.store

let kernel = function
  | Pearson_scalar -> Stats.Pearson.Batch.Scalar
  | Pearson_batched -> Stats.Pearson.Batch.Batched
  | Profiled _ -> Stats.Pearson.Batch.Scalar

let name = function
  | Pearson_scalar -> "scalar"
  | Pearson_batched -> "batched"
  | Profiled _ -> "profiled"

let names = [ "scalar"; "batched"; "profiled" ]
let is_profiled = function Profiled _ -> true | _ -> false

module type S = sig
  val name : string

  type 'k state

  val create :
    parts:(int * 'k Hypothesis.Model.t) list -> guesses:int array -> 'k state

  val needs : 'k state -> int list list
  val fold : jobs:int -> 'k state -> (float array array * 'k array) array -> unit
  val finalize : jobs:int -> 'k state -> float array
end
