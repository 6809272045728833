let available_cores () = Domain.recommended_domain_count ()

let check_jobs j =
  if j < 1 then invalid_arg "Parallel: jobs must be >= 1";
  j

let run_workers ~jobs body =
  let jobs = check_jobs jobs in
  if jobs = 1 then body 0
  else begin
    let spawned =
      Array.init (jobs - 1) (fun i -> Domain.spawn (fun () -> body (i + 1)))
    in
    let first_exn = ref None in
    let note e = if !first_exn = None then first_exn := Some e in
    (try body 0 with e -> note e);
    Array.iter
      (fun d -> match Domain.join d with () -> () | exception e -> note e)
      spawned;
    match !first_exn with Some e -> raise e | None -> ()
  end

let map_array ~jobs f arr =
  let n = Array.length arr in
  let jobs = min (check_jobs jobs) n in
  if jobs <= 1 then Array.map f arr
  else begin
    let out = Array.make n None in
    let cursor = Atomic.make 0 in
    run_workers ~jobs (fun _ ->
        let rec loop () =
          let i = Atomic.fetch_and_add cursor 1 in
          if i < n then begin
            out.(i) <- Some (f arr.(i));
            loop ()
          end
        in
        loop ());
    Array.map (function Some v -> v | None -> assert false) out
  end

(* Pull up to [k] elements off a sequence; serialised by the caller. *)
let take k seq =
  let rec go k acc s =
    if k = 0 then (acc, s)
    else
      match s () with
      | Seq.Nil -> (acc, Seq.empty)
      | Seq.Cons (x, tl) -> go (k - 1) (x :: acc) tl
  in
  let rev, rest = go k [] seq in
  let m = List.length rev in
  if m = 0 then (None, rest)
  else begin
    (* rev holds the chunk backwards; fill the array right to left *)
    let arr = Array.make m (List.hd rev) in
    List.iteri (fun i x -> arr.(m - 1 - i) <- x) rev;
    (Some arr, rest)
  end

let map_chunks ~jobs ~chunk ~map seq =
  let jobs = check_jobs jobs in
  if chunk < 1 then invalid_arg "Parallel.map_chunks: chunk must be >= 1";
  if jobs = 1 then begin
    let out = ref [] in
    let rec loop i s =
      match take chunk s with
      | None, _ -> ()
      | Some arr, rest ->
          out := map i arr :: !out;
          loop (i + 1) rest
    in
    loop 0 seq;
    List.rev !out
  end
  else begin
    let src = Mutex.create () in
    let state = ref seq in
    let next_idx = ref 0 in
    let next () =
      Mutex.protect src (fun () ->
          match take chunk !state with
          | None, _ -> None
          | Some arr, rest ->
              let i = !next_idx in
              state := rest;
              next_idx := i + 1;
              Some (i, arr))
    in
    let sink = Mutex.create () in
    let results = ref [] in
    run_workers ~jobs (fun _ ->
        let rec loop () =
          match next () with
          | None -> ()
          | Some (i, arr) ->
              let r = map i arr in
              Mutex.protect sink (fun () -> results := (i, r) :: !results);
              loop ()
        in
        loop ());
    List.sort (fun (a, _) (b, _) -> compare a b) !results |> List.map snd
  end

let map_reduce_chunks ~jobs ~chunk ~map ~reduce ~init seq =
  List.fold_left reduce init (map_chunks ~jobs ~chunk ~map:(fun _ arr -> map arr) seq)
