(* sweep: a closed-loop cold batch sweep of distinct mainnet-weighted
   contracts through Scheduler.analyze_requests on nproc domains
   (caller included), production cache on. The paper's headline job;
   tac, facts and analysis do nearly all of the work. *)

open Common
module G = Ethainter_corpus.Generator
module P = Ethainter_core.Pipeline
module S = Ethainter_core.Scheduler
module Tel = Ethainter_core.Telemetry
module V = Ethainter_core.Vulns

(* Contracts per second this workload sustains on a 2-core reference
   machine: the run analyzes about [seconds * reference_rate]
   contracts, a fixed amount of work, so its memory does not depend on
   its speed. *)
let reference_rate = 800.0

(* Distinct contracts per pass. Passes repeat the set with the cache
   cleared in between, so every request still misses and inserts, each
   batch and each contract is timed once per pass, and the process
   keeps at most this many contracts' worth of interned state. *)
let distinct_max = 1000
let batch = 100

type item = { code : string; expect : V.kind list }

(* Disjoint warm-up and timed sets of distinct bytecodes, each with the
   verdict the generator's ground truth predicts: flagged iff the kind
   is truly vulnerable or an expected false positive. *)
let inputs ~seed ~n_warm ~n_timed =
  let seen = Hashtbl.create 4096 in
  let items s n =
    Array.map
      (fun (i : G.instance) ->
        { code = i.G.i_runtime;
          expect =
            List.filter
              (fun k -> G.truly_vulnerable i k || G.expected_fp i k)
              V.all_kinds })
      (mainnet ~seen ~seed:s n)
  in
  let warm = items ((seed * 2) + 1) n_warm in
  (warm, items ((seed * 2) + 2) n_timed)

let request it = P.request (P.Runtime it.code)

(* Ground-truth checks of one verdict: (checks, mismatches). *)
let check it (r : P.result) =
  if r.P.error <> None || r.P.timed_out then (List.length V.all_kinds, 1)
  else
    List.fold_left
      (fun (n, bad) k ->
        (n + 1, if P.flags r k = List.mem k it.expect then bad else bad + 1))
      (0, 0) V.all_kinds

(* The plan: [passes] passes over the timed set, in batches. *)
let plan ~n_distinct ~passes =
  let batches =
    List.init ((n_distinct + batch - 1) / batch) (fun b ->
        Array.init (min batch (n_distinct - (b * batch))) (fun j -> (b * batch) + j))
  in
  List.init passes (fun _ -> batches)

(* What a series of batches left behind. Verdicts are checked as each
   batch returns and only the tallies are kept, so memory does not grow
   with the number of passes. *)
type pass_result = {
  analyzed : int;
  checks : int;        (* ground-truth checks *)
  mismatched : int;    (* checks that failed *)
  failed : int;        (* contracts with a failed check or an error *)
  slices : (int * float * float array) list;
      (* batch: first index, seconds, each contract's elapsed_s *)
  fe : Ethainter_core.Cache.stats list;  (* front-end cache diffs *)
  be : Ethainter_core.Cache.stats list;
}

let empty =
  { analyzed = 0; checks = 0; mismatched = 0; failed = 0; slices = []; fe = [];
    be = [] }

(* One batch: the updated tallies and the batch's verdicts. *)
let run_batch ~workers timed idx acc =
  let reqs = Array.to_list (Array.map (fun i -> request timed.(i)) idx) in
  let tel0 = Tel.capture () in
  let t0 = now () in
  let rs =
    Trace.span ~req:idx.(0) "scheduler.batch" (fun _ ->
        S.analyze_requests ~workers reqs)
  in
  let dt = now () -. t0 in
  let d = Tel.diff (Tel.capture ()) tel0 in
  let acc =
    List.fold_left
      (fun acc (j, r) ->
        let n, bad = check timed.(idx.(j)) r in
        { acc with
          checks = acc.checks + n;
          mismatched = acc.mismatched + bad;
          failed = (if bad > 0 then acc.failed + 1 else acc.failed) })
      acc
      (List.mapi (fun j r -> (j, r)) rs)
  in
  ( { acc with
      analyzed = acc.analyzed + List.length rs;
      slices =
        (idx.(0), dt, Array.of_list (List.map (fun r -> r.P.elapsed_s) rs))
        :: acc.slices;
      fe = d.Tel.cache_fe :: acc.fe;
      be = d.Tel.cache_be :: acc.be },
    rs )

(* Untraced: the cache is cleared once per pass. *)
let run_plan ~workers timed acc plan =
  List.fold_left
    (fun acc batches ->
      P.cache_clear ();
      List.fold_left
        (fun acc idx -> fst (run_batch ~workers timed idx acc))
        acc batches)
    acc plan

(* Traced run: every batch runs untraced and traced, cold both times,
   alternating which goes first so warm state and drift cancel. Carries
   both tallies and the number of contracts whose traced verdict
   differs from the untraced one. *)
let run_twins ~workers timed (u, t, differ) plan =
  let u = ref u and t = ref t and differ = ref differ in
  List.iteri
    (fun b idx ->
      let one traced =
        P.cache_clear ();
        Trace.on := traced;
        let acc = if traced then t else u in
        let acc', rs = run_batch ~workers timed idx !acc in
        acc := acc';
        List.map normalize rs
      in
      let ru, rt =
        if b mod 2 = 0 then
          let ru = one false in
          (ru, one true)
        else
          let rt = one true in
          (one false, rt)
      in
      List.iter2 (fun a b -> if a <> b then incr differ) ru rt)
    (List.concat plan);
  Trace.on := true;
  (!u, !t, !differ)

(* Per-layer costs on one domain, from spans around the benchmark's own
   calls into Decomp, Facts and Analysis, interleaved with a cold
   Pipeline.run of the same contract (alternating which goes first, so
   drift and warm state cancel). Minor words are exact on one domain. *)
let phase_layers (items : item array) =
  let k = Array.length items in
  let mw = Array.make 3 0.0 and stmts = ref 0 and blocks = ref 0
  and rounds = ref 0 in
  let words f =
    let w0 = Gc.minor_words () in
    let r = f () in
    (r, Gc.minor_words () -. w0)
  in
  let phases i code =
    Trace.span ~req:i "pipeline.phases" @@ fun pid ->
    let p, w0 =
      Trace.span ~parent:pid ~req:i "tac" (fun _ ->
          words (fun () -> Ethainter_tac.Decomp.decompile code))
    in
    let f, w1 =
      Trace.span ~parent:pid ~req:i "facts" (fun _ ->
          words (fun () -> Ethainter_core.Facts.compute p))
    in
    let a, w2 =
      Trace.span ~parent:pid ~req:i "analysis.fixpoint" (fun _ ->
          words (fun () -> Ethainter_core.Analysis.run f))
    in
    let _, w3 =
      Trace.span ~parent:pid ~req:i "analysis.detect" (fun _ ->
          words (fun () -> Ethainter_core.Analysis.detect a))
    in
    mw.(0) <- mw.(0) +. w0;
    mw.(1) <- mw.(1) +. w1;
    mw.(2) <- mw.(2) +. w2 +. w3;
    stmts := !stmts + Ethainter_tac.Tac.loc p;
    blocks := !blocks + List.length (Ethainter_tac.Tac.blocks p);
    rounds := !rounds + a.Ethainter_core.Analysis.rounds
  in
  let failed = ref 0 in
  let cold i it =
    let r =
      Trace.span ~req:i "pipeline.run" (fun _ -> P.run (P.request (P.Runtime it.code)))
    in
    if snd (check it r) > 0 then incr failed
  in
  P.cache_clear ();
  Array.iteri
    (fun i it ->
      if i mod 2 = 0 then (phases i it.code; cold i it)
      else (cold i it; phases i it.code))
    items;
  let per x = ratio (float_of_int x) (float_of_int k) in
  let perf x = ratio x (float_of_int k) in
  ( [ metric "tac.decompile_us" "us" (Trace.self_us "tac");
    metric "facts.compute_us" "us" (Trace.self_us "facts");
    metric "analysis.fixpoint_us" "us" (Trace.self_us "analysis.fixpoint");
    metric "analysis.detect_us" "us" (Trace.self_us "analysis.detect");
    metric "tac.stmts" "count" (per !stmts);
    metric "tac.blocks" "count" (per !blocks);
    metric "analysis.rounds" "count" (per !rounds);
    metric "tac.minor_words" "words" (perf mw.(0));
    metric "facts.minor_words" "words" (perf mw.(1));
    metric "analysis.minor_words" "words" (perf mw.(2));
    metric "pipeline.overhead_us" "us"
        (Trace.mean_us "pipeline.run" -. Trace.mean_us "pipeline.phases") ],
    !failed )

(* Throughput at nproc workers over throughput at 1 worker on the same
   contracts, cold each time, timed 1-n-n-1 so drift cancels. *)
let speedup (items : item array) =
  let reqs = Array.to_list (Array.map request items) in
  let time workers =
    P.cache_clear ();
    let t0 = now () in
    ignore
      (Trace.span "scheduler.speedup" (fun _ -> S.analyze_requests ~workers reqs));
    now () -. t0
  in
  let a = time 1 in
  let b = time nproc in
  let c = time nproc in
  let d = time 1 in
  metric "scheduler.speedup" "x" (ratio (a +. d) (b +. c))

let sizes (sz : size) =
  let n_timed = if sz.tiny then 40 else distinct_max in
  let passes =
    max 2 (int_of_float (sz.seconds *. reference_rate) / n_timed)
  in
  let n_warm = if sz.tiny then 20 else 300 in
  (n_warm, n_timed, passes)

(* The per-layer metrics alone, for another workload's traced run:
   the metrics, the failed and the attempted verdicts. *)
let layers ~seed (sz : size) =
  let k = if sz.tiny then 10 else 120 in
  let _, items = inputs ~seed ~n_warm:0 ~n_timed:(if sz.tiny then k else 400) in
  let l, failed = phase_layers (Array.sub items 0 k) in
  (l @ [ speedup items ], failed, k)

let run ~seed ~traced (sz : size) : outcome =
  let n_warm, n_timed, passes = sizes sz in
  let warm, timed = inputs ~seed ~n_warm ~n_timed in
  let workers = nproc in
  (* input generation's garbage is not the set-up's to collect *)
  Gc.compact ();
  let setup () =
    P.cache_clear ();
    P.prewarm ();
    ignore (S.analyze_requests ~workers (Array.to_list (Array.map request warm)))
  in
  let passes = if traced then max 2 (passes / 2) else passes in
  (* Set-up runs again before each of [groups] groups of passes, so its
     repetitions are spread over the run as the timed work's are. *)
  let groups = min 7 passes in
  let setups = Array.make groups 0.0 in
  let pr, tr, differ =
    List.fold_left
      (fun (pr, tr, differ) g ->
        let t0 = now () in
        setup ();
        setups.(g) <- now () -. t0;
        let plan =
          plan ~n_distinct:(Array.length timed)
            ~passes:((((g + 1) * passes) / groups) - (g * passes / groups))
        in
        if traced then run_twins ~workers timed (pr, tr, differ) plan
        else (run_plan ~workers timed pr plan, tr, differ))
      (empty, empty, 0) (List.init groups Fun.id)
  in
  let setup_s = median setups in
  let units = Hashtbl.create 16 in
  List.iter (fun (i, dt, lat) -> add units i (dt, lat)) pr.slices;
  let headline, samples, _ = headline units in
  let rate pr =
    ratio (float_of_int pr.analyzed)
      (List.fold_left (fun a (_, t, _) -> a +. t) 0.0 pr.slices)
  in
  let attempted = pr.analyzed and failed = pr.failed + tr.failed in
  let notes =
    [ ("nproc", string_of_int nproc); ("workers", string_of_int workers);
      ("distinct_contracts", string_of_int (Array.length timed));
      ("passes", string_of_int passes);
      ("warmup_contracts", string_of_int (Array.length warm));
      ("samples_per_round", string_of_int samples);
      ("truth_checks", string_of_int (pr.checks + tr.checks));
      ("truth_mismatches", string_of_int (pr.mismatched + tr.mismatched)) ]
  in
  let e2e =
    headline @ [ metric "setup_s" "s" setup_s ]
  in
  if not traced then { attempted; failed; e2e; layers = []; notes }
  else begin
    let k = min 120 (Array.length timed) in
    let phase, phase_failed = phase_layers (Array.sub timed 0 k) in
    let layers =
      cache_metrics ~items:pr.analyzed pr.fe pr.be
      @ phase
      @ [ speedup (Array.sub timed 0 (min 400 (Array.length timed)));
          metric "trace.overhead_frac" "ratio" (ratio (rate tr) (rate pr)) ]
    in
    { attempted = attempted + tr.analyzed + k;
      failed = failed + differ + phase_failed;
      e2e; layers;
      notes = notes @ [ ("traced_verdict_differences", string_of_int differ) ] }
  end
