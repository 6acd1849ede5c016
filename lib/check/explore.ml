(* Schedule exploration and failing-plan shrinking.

   [run] draws fault plans deterministically from an index range and runs
   them against a scenario until the budget is spent or an auditor fires.
   [shrink] then minimizes the failing plan — drop faults to a fixpoint,
   simplify the scheduling policy — so the repro the user sees is the
   smallest schedule that still fails, printed as a copy-pastable
   [rrq_demo check --replay] line. *)

type failure = {
  plan : Plan.t;
  outcome : Scenario.outcome;
  shrunk : Plan.t option;  (** Smaller still-failing plan, when one exists. *)
  shrink_runs : int;  (** Scenario executions the shrinker spent. *)
}

type report = {
  scenario : string;
  explored : int;  (** Plans actually run. *)
  passed : int;
  failure : failure option;  (** The first failing plan, minimized. *)
}

let plan_of_index scenario ~seed i =
  Plan.random ~seed:(seed + (1000 * i)) ~profile:(Scenario.profile scenario)

(* ---- shrinking --------------------------------------------------------- *)

let drop_nth n l = List.filteri (fun i _ -> i <> n) l

let fails scenario plan = Scenario.failed (Scenario.run scenario plan)

(* ddmin-lite: repeatedly try removing one fault; restart the scan after
   every successful removal until no single removal still fails. Then try
   trading the randomized policy for FIFO. Each candidate costs one full
   scenario run, so the whole shrink is bounded by [max_runs]. *)
let shrink ?(max_runs = 60) scenario (plan : Plan.t) =
  let runs = ref 0 in
  let try_fails candidate =
    if !runs >= max_runs then false
    else begin
      incr runs;
      fails scenario candidate
    end
  in
  let rec drop_pass (p : Plan.t) =
    let n = List.length p.faults in
    let rec try_at i =
      if i >= n then p
      else
        let candidate = { p with faults = drop_nth i p.faults } in
        if try_fails candidate then drop_pass candidate else try_at (i + 1)
    in
    if n = 0 then p else try_at 0
  in
  let smaller = drop_pass plan in
  let smaller =
    match smaller.policy with
    | `Fifo -> smaller
    | `Random _ ->
      let fifo = { smaller with policy = `Fifo } in
      if try_fails fifo then fifo else smaller
  in
  let shrunk = if smaller = plan then None else Some smaller in
  (shrunk, !runs)

(* ---- exploration ------------------------------------------------------- *)

let run ?(budget = 200) ?(seed = 1) ?(shrink_failures = true) scenario =
  let passed = ref 0 in
  let explored = ref 0 in
  let failure = ref None in
  let i = ref 0 in
  while !failure = None && !i < budget do
    let plan = plan_of_index scenario ~seed !i in
    incr i;
    incr explored;
    let outcome = Scenario.run scenario plan in
    if Scenario.failed outcome then begin
      let shrunk, shrink_runs =
        if shrink_failures then shrink scenario plan else (None, 0)
      in
      failure := Some { plan; outcome; shrunk; shrink_runs }
    end
    else incr passed
  done;
  {
    scenario = Scenario.name scenario;
    explored = !explored;
    passed = !passed;
    failure = !failure;
  }

(* ---- reporting --------------------------------------------------------- *)

let repro_line scenario plan =
  Printf.sprintf "rrq_demo check --scenario %s --replay '%s'" scenario
    (Plan.to_string plan)

let minimal_plan f = match f.shrunk with Some p -> p | None -> f.plan

let failure_to_string ~scenario f =
  let b = Buffer.create 256 in
  Printf.bprintf b "FAILED: %s\n" (Audit.findings_to_string f.outcome.Scenario.findings);
  Printf.bprintf b "  plan:   %s\n" (Plan.to_string f.plan);
  (match f.shrunk with
  | Some p ->
    Printf.bprintf b "  shrunk: %s  (%d shrink runs)\n" (Plan.to_string p)
      f.shrink_runs
  | None -> Printf.bprintf b "  shrunk: (already minimal, %d shrink runs)\n" f.shrink_runs);
  Printf.bprintf b "  repro:  %s" (repro_line scenario (minimal_plan f));
  Buffer.contents b

let report_to_string r =
  match r.failure with
  | None ->
    Printf.sprintf "%s: %d/%d schedules passed all auditors" r.scenario r.passed
      r.explored
  | Some f ->
    Printf.sprintf "%s: %d schedules passed, then:\n%s" r.scenario r.passed
      (failure_to_string ~scenario:r.scenario f)
