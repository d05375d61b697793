(* Shared plumbing: clocks, statistics, the metric record, process
   peak memory and the machine calibration kernel. *)

let now = Unix.gettimeofday
let nproc = Domain.recommended_domain_count ()

(* Worker domains of a pool that runs beside a busy main domain (the
   index's and the daemon's), so runnable domains stay within nproc. *)
let pool_workers = max 1 (nproc - 1)

(* Where a run writes its journal and span files, inside the checkout. *)
let out_dir = ".perfbench"

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* What one workload run reports. [layers] is empty in an untraced run. *)
type outcome = {
  attempted : int;
  failed : int;
  e2e : metric list;
  layers : metric list;
  notes : (string * string) list;  (* printed, not parsed *)
}

(* How big a run is. [tiny] shrinks every input for the self-test. *)
type size = { seconds : float; tiny : bool }

(* Nearest-rank quantile of an unsorted sample; 0 on an empty one. *)
let quantile (xs : float array) q =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let a = Array.copy xs in
    Array.sort compare a;
    let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) k))
  end

let median xs = quantile xs 0.5

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* VmHWM of this process, in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
  float_of_int kb /. 1024.0

(* A fixed Keccak kernel: 1 MiB in 4 KiB chunks, five times; the median
   rate in MB/s. Timed before and after a workload so machine drift is
   visible next to the workload's own numbers. *)
let keccak_mb_s () =
  let buf = String.make 4096 'k' in
  let rate () =
    let t0 = now () in
    for _ = 1 to 256 do ignore (Ethainter_crypto.Keccak.hash buf) done;
    1.048576 /. (now () -. t0)
  in
  median (Array.init 5 (fun _ -> rate ()))

(* [add t k v] files one more repetition [v] of unit [k]. *)
let add t k v =
  Hashtbl.replace t k (v :: Option.value ~default:[] (Hashtbl.find_opt t k))

(* The end-to-end figures of a run. Every unit of work (a batch of
   contracts, an episode of blocks) runs once per round, and a run has
   many rounds, spread over it. Each round gives a throughput (its
   items over the summed durations of its units) and a p50 and p99 over
   its items' latencies; the run reports the median over rounds of
   each. On a shared machine the same code runs at speeds up to 2x
   apart, in spells of seconds: the median reads the speed the run
   spent most of its rounds at, where the fastest round or a pooled
   percentile reads how many fast spells or stalls it happened to see.
   A slower program slows every round. [units] maps a unit to its
   repetitions (duration in s, latency in s of each of its items);
   every unit has the same number of them. Returns the metrics, the
   latency samples per round and the number of rounds. *)
let headline (units : ('a, (float * float array) list) Hashtbl.t) =
  let reps = Hashtbl.fold (fun _ r acc -> Array.of_list r :: acc) units [] in
  let rounds = Array.length (List.hd reps) in
  let round k =
    let secs = List.fold_left (fun a r -> a +. fst r.(k)) 0.0 reps in
    let lat = Array.concat (List.map (fun r -> snd r.(k)) reps) in
    (lat, ratio (float_of_int (Array.length lat)) secs)
  in
  let rs = Array.init rounds round in
  let over f = median (Array.map f rs) in
  ( [ metric "throughput_per_s" "1/s" (over snd);
      metric "p50_ms" "ms" (over (fun (lat, _) -> 1e3 *. quantile lat 0.5));
      metric "p99_ms" "ms" (over (fun (lat, _) -> 1e3 *. quantile lat 0.99)) ],
    Array.length (fst rs.(0)),
    rounds )

let rm_rf dir =
  let rec go p =
    match (Unix.lstat p).Unix.st_kind with
    | Unix.S_DIR ->
        Array.iter (fun e -> go (Filename.concat p e)) (Sys.readdir p);
        Unix.rmdir p
    | _ -> Sys.remove p
    | exception Unix.Unix_error _ -> ()
  in
  go dir

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let dir_bytes dir =
  Array.fold_left
    (fun acc e ->
      match Unix.stat (Filename.concat dir e) with
      | st -> acc + st.Unix.st_size
      | exception Unix.Unix_error _ -> acc)
    0 (Sys.readdir dir)

(* Seeded PRNG for inputs: same seed, same inputs. *)
let rng seed = Random.State.make [| 0x5eed; seed |]

(* Exponential inter-arrival for a Poisson process of [rate] per s. *)
let exp_gap st rate = -.Float.log (1.0 -. Random.State.float st 1.0) /. rate

module Cache = Ethainter_core.Cache
module Tel = Ethainter_core.Telemetry

(* Cache counters of a window, from Telemetry diffs (one pair per
   stretch between cache clears), per item of the workload. *)
let cache_metrics ~items (fe : Cache.stats list) (be : Cache.stats list) =
  let n = float_of_int items in
  let sum f l = float_of_int (List.fold_left (fun a s -> a + f s) 0 l) in
  let be_hits = sum (fun s -> s.Cache.hits + s.Cache.disk_hits) be in
  let be_misses = sum (fun s -> s.Cache.misses) be in
  [ metric "cache.fe_misses" "1/item" (ratio (sum (fun s -> s.Cache.misses) fe) n);
    metric "cache.be_misses" "1/item" (ratio be_misses n);
    metric "cache.be_hit_ratio" "ratio" (ratio be_hits (be_hits +. be_misses));
    metric "cache.evictions" "count"
      (sum (fun s -> s.Cache.evictions) fe +. sum (fun s -> s.Cache.evictions) be) ]

(* [cache_window f] runs [f] and returns the front-end and back-end
   cache counters it moved. *)
let cache_window f =
  let t0 = Tel.capture () in
  let r = f () in
  let d = Tel.diff (Tel.capture ()) t0 in
  (r, (d.Tel.cache_fe, d.Tel.cache_be))

let normalize (r : Ethainter_core.Pipeline.result) =
  { r with Ethainter_core.Pipeline.elapsed_s = 0.0 }

(* [get k l]: the value of [k] in a counter list, 0 when absent. *)
let get k l = Option.value ~default:0.0 (List.assoc_opt k l)

(* Reference verdicts for the gates: a cold sweep of [codes] with the
   cache off, so no cached entry answers for the program under test;
   [elapsed_s] normalised. In the order of [codes]. *)
let reference_verdicts codes =
  let module P = Ethainter_core.Pipeline in
  P.set_cache_enabled false;
  Fun.protect ~finally:(fun () -> P.set_cache_enabled true) (fun () ->
      List.map normalize (Ethainter_core.Scheduler.analyze_corpus ~workers:nproc codes))

module G = Ethainter_corpus.Generator

(* Exactly [n] mainnet-weighted contracts (about 850 B of runtime each)
   whose runtimes are not in [seen], drawn from [seed] and, when the
   generator's rounding leaves the set short, from further seeds. *)
let mainnet ~seen ~seed n =
  let acc = ref [] and got = ref 0 and k = ref 0 in
  while !got < n do
    List.iter
      (fun (i : G.instance) ->
        if !got < n && not (Hashtbl.mem seen i.G.i_runtime) then begin
          Hashtbl.add seen i.G.i_runtime ();
          acc := i :: !acc;
          incr got
        end)
      (G.mainnet ~seed:((seed * 64) + !k) ~fillers:(4, 12) ~size:(n - !got + 8) ());
    incr k
  done;
  Array.of_list (List.rev !acc)
