type t = {
  jobs : int;
  backend : Distinguisher.selection;
  obs : Obs.t;
  leakage : [ `Hw | `Hd ];
  on_corrupt : [ `Fail | `Skip ];
}

let default =
  {
    jobs = 1;
    backend = Distinguisher.Pearson_batched;
    obs = Obs.null;
    leakage = `Hw;
    on_corrupt = `Fail;
  }

let make ?(jobs = default.jobs) ?(distinguisher = default.backend)
    ?(obs = default.obs) ?(leakage = default.leakage)
    ?(on_corrupt = default.on_corrupt) () =
  { jobs = Parallel.check_jobs jobs; backend = distinguisher; obs; leakage; on_corrupt }

let with_jobs jobs t =
  if jobs < 1 then invalid_arg "Ctx.with_jobs: jobs must be >= 1";
  { t with jobs }

let with_backend backend t = { t with backend }
let with_obs obs t = { t with obs }
let with_leakage leakage t = { t with leakage }
let sequential t = { t with jobs = 1 }
let kernel t = Distinguisher.kernel t.backend
