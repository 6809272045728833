type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let record t what misses =
  t.attempted <- t.attempted + 1;
  if misses <> [] then begin
    t.failed <- t.failed + 1;
    Printf.eprintf "perfbench: %s failed: %s\n%!" what (String.concat "; " misses)
  end

let attempt t what f =
  record t what (try f () with e -> [ "raised " ^ Printexc.to_string e ])

let attempted t = t.attempted
let failed t = t.failed

let fail_rate t =
  if t.attempted = 0 then 0. else float_of_int t.failed /. float_of_int t.attempted

let forged_msg = "perfbench forgery"

let forgery pk (res : Attack.Fullkey.result) =
  match res.keypair with
  | None -> false
  | Some keypair ->
      Falcon.Scheme.verify pk forged_msg
        (Attack.Fullkey.forge ~keypair ~seed:"perfbench forger" forged_msg)

let misses checks = List.filter_map (fun (ok, what) -> if ok then None else Some what) checks

let fullkey ~truth (res : Attack.Fullkey.result) ~forged =
  let units = 2 * Fft.length truth in
  let exact = Attack.Fullkey.count_correct res.f_fft ~truth in
  misses
    [
      (exact = units, Printf.sprintf "f_fft %d/%d bit-exact" exact units);
      (res.keypair <> None, "no keypair rebuilt");
      (forged, "forgery does not verify");
    ]

let store ~dir ~expected ~pk ~sample =
  let _, shards = Tracestore.verify dir in
  let bad =
    List.filter_map
      (function i, Error e -> Some (Printf.sprintf "shard %d: %s" i e) | _, Ok _ -> None)
      shards
  in
  let count = List.fold_left (fun acc (_, r) -> acc + Result.value r ~default:0) 0 shards in
  let reader = Tracestore.Reader.open_store dir in
  let n = (Tracestore.Reader.meta reader).Tracestore.n in
  let stride = max 1 (expected / max 1 sample) in
  let unsigned =
    Seq.fold_lefti
      (fun acc i r ->
        if i mod stride <> 0 then acc
        else
          let t = Leakage.of_record ~n r in
          if Falcon.Scheme.verify pk t.msg t.signature then acc else i :: acc)
      [] (Tracestore.Reader.to_seq reader)
  in
  bad
  @ misses
      [
        (count = expected, Printf.sprintf "%d records, expected %d" count expected);
        ( unsigned = [],
          Printf.sprintf "%d sampled signatures do not verify" (List.length unsigned) );
      ]
