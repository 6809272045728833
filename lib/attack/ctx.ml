type t = {
  jobs : int;
  backend : Distinguisher.selection;
  obs : Obs.t;
  leakage : [ `Hw | `Hd ];
  on_corrupt : [ `Fail | `Skip ];
}

let default () =
  {
    jobs = Parallel.default_jobs ();
    backend = Distinguisher.default ();
    obs = Obs.null;
    leakage = `Hw;
    on_corrupt = `Fail;
  }

let or_default = function Some c -> c | None -> default ()

let make ?jobs ?distinguisher ?obs ?leakage ?on_corrupt () =
  let d = default () in
  {
    jobs = Parallel.resolve jobs;
    backend = Option.value distinguisher ~default:d.backend;
    obs = Option.value obs ~default:d.obs;
    leakage = Option.value leakage ~default:d.leakage;
    on_corrupt = Option.value on_corrupt ~default:d.on_corrupt;
  }

let with_jobs jobs t =
  if jobs < 1 then invalid_arg "Ctx.with_jobs: jobs must be >= 1";
  { t with jobs }

let with_backend backend t = { t with backend }
let with_obs obs t = { t with obs }
let with_leakage leakage t = { t with leakage }
let with_on_corrupt on_corrupt t = { t with on_corrupt }
let sequential t = { t with jobs = 1 }
let kernel t = Distinguisher.kernel t.backend
