(* stream: a chain watcher. A genesis fleet of Experiments.stream_source
   contracts is deployed during set-up and a durable index
   (Index.recover, journal inside the run's work directory) attaches
   with a pool of nproc-1 workers. Then one transaction per block:
   ~85% non-dependency ping() writes, ~10% setOwner rotations
   (back-end-only re-analysis), ~4% deployments of novel
   mainnet-weighted contracts (full analysis), the rest kill() calls on
   fleet members. The only workload where evm, chain, index and journal
   do the work. *)

open Common
module G = Ethainter_corpus.Generator
module P = Ethainter_core.Pipeline
module S = Ethainter_core.Scheduler
module T = Ethainter_chain.Testnet
module Idx = Ethainter_index.Index
module U = Ethainter_word.Uint256

(* The chain keeps every receipt, so its memory, and the collector's
   work with it, grow with the blocks sealed. A run is therefore a fixed
   number of episodes of [episode_blocks] blocks, each on a fresh
   chain: [seconds * reference_rate] blocks in all, where
   [reference_rate] is what this workload sustains on a 2-core
   reference machine. *)
let reference_rate = 4500.0
let episode_blocks = 4000

(* Distinct episodes of a run. The run repeats them in turn, each turn
   a round (see Common.headline). *)
let distinct_episodes = 4

let owners = 16

type op =
  | Ping of int            (* fleet member *)
  | Rotate of int * int * int  (* fleet member, its owner, new owner *)
  | Deploy of int          (* novel contract *)
  | Kill of int * int      (* fleet member, its owner at that point *)

type inputs = {
  fleet : string array;    (* initcode *)
  novel : string array;    (* initcode *)
  ops : op array;
}

(* Ownership is simulated while generating, so every rotation and kill
   is sent by the member's current owner. Owner -1 is the deployer. *)
let inputs ~seed ~blocks ~fleet =
  let st = rng (seed + 7919) in
  let owner = Array.make fleet (-1) in
  let alive = Array.init fleet Fun.id and n_alive = ref fleet in
  let n_novel = ref 0 in
  let pick () = alive.(Random.State.int st !n_alive) in
  let ops =
    Array.init blocks (fun _ ->
        let x = Random.State.float st 1.0 in
        if x < 0.85 then Ping (pick ())
        else if x < 0.95 then begin
          let m = pick () and o = Random.State.int st owners in
          let prev = owner.(m) in
          owner.(m) <- o;
          Rotate (m, prev, o)
        end
        else if x < 0.99 || !n_alive <= fleet / 2 then begin
          incr n_novel;
          Deploy (!n_novel - 1)
        end
        else begin
          let k = Random.State.int st !n_alive in
          let m = alive.(k) in
          alive.(k) <- alive.(!n_alive - 1);
          decr n_alive;
          Kill (m, owner.(m))
        end)
  in
  let fleet_code =
    Array.init fleet (fun i ->
        Ethainter_minisol.Codegen.compile_source
          (Ethainter_experiments.Experiments.stream_source
             ((seed * 100_000) + i)))
  in
  let novel =
    Array.map
      (fun (i : G.instance) -> i.G.i_deploy)
      (mainnet ~seen:(Hashtbl.create 64) ~seed:((seed * 8) + 5) !n_novel)
  in
  { fleet = fleet_code; novel; ops }

type chain = {
  net : T.t;
  deployer : U.t;
  accounts : U.t array;
  addrs : U.t array;
  sealed_at : float ref;   (* stamped by the benchmark's block hook *)
}

let account c o = if o < 0 then c.deployer else c.accounts.(o)

(* A funded chain with the fleet deployed; the hook registers before any
   index, so it runs first on every seal. *)
let genesis inp =
  let net = T.create ~name:"perfbench" () in
  let sealed_at = ref 0.0 in
  T.on_block net (fun _ -> sealed_at := now ());
  let fund a = T.fund_account net a (U.of_string "0xffffffffffffffffffffffff") in
  let deployer = T.account_of_seed "perfbench-deployer" in
  fund deployer;
  let accounts =
    Array.init owners (fun i -> T.account_of_seed (Printf.sprintf "perfbench-owner-%d" i))
  in
  Array.iter fund accounts;
  let addrs =
    Array.map
      (fun code ->
        match (T.deploy net ~from:deployer code).T.created with
        | Some a -> a
        | None -> failwith "stream: fleet deployment failed")
      inp.fleet
  in
  { net; deployer; accounts; addrs; sealed_at }

(* One operation as one block. False if the transaction failed. *)
let apply c inp = function
  | Ping m -> T.succeeded (T.call_fn c.net ~from:c.deployer ~to_:c.addrs.(m) "ping()" [])
  | Rotate (m, prev, o) ->
      T.succeeded
        (T.call_fn c.net ~from:(account c prev) ~to_:c.addrs.(m)
           "setOwner(address)" [ c.accounts.(o) ])
  | Deploy k -> (T.deploy c.net ~from:c.deployer inp.novel.(k)).T.created <> None
  | Kill (m, o) ->
      T.succeeded (T.call_fn c.net ~from:(account c o) ~to_:c.addrs.(m) "kill()" [])

type index = { idx : Idx.t; pool : S.Pool.t; jdir : string }

let attach ~workers ~jdir c =
  rm_rf jdir;
  mkdir_p jdir;
  let pool = S.Pool.create ~workers () in
  let idx = Idx.recover ~pool ~journal_dir:jdir c.net in
  Idx.drain idx;
  { idx; pool; jdir }

let detach x =
  Idx.close x.idx;
  S.Pool.shutdown x.pool;
  rm_rf x.jdir

(* Set-up: genesis, fleet deployment and index attachment (which
   analyzes the fleet), from a cold cache. *)
let start ~workers ~jdir inp =
  P.cache_clear ();
  let c = genesis inp in
  (c, attach ~workers ~jdir c)

type pass = {
  lat : float array;         (* per block: submit to return, s *)
  ingest_s : float;          (* all blocks sealed and drained *)
  failed_tx : int;
  checkpoint_lat : float list;
  journal_bytes : int;
  index_diff : (string * float) list;
  program : float * float;   (* decoded-program cache hits, decodes *)
}

let diff_pairs a b = List.map (fun (k, v) -> (k, v -. get k b)) a

let evm_pairs () =
  match List.assoc_opt "evm_program" (Tel.capture ()).Tel.extras with
  | Some l -> l
  | None -> []

(* Ingest [ops] one block each. Traced, each block is a root span with
   two children split at the benchmark's own seal hook: the EVM and
   chain up to the seal, the index's observation after it. *)
let ingest c x inp ops =
  let n = Array.length ops in
  let lat = Array.make n 0.0 and failed_tx = ref 0 in
  let ckpt = ref [] in
  let stats0 = Idx.stats x.idx and evm0 = evm_pairs () in
  (* a checkpoint creates and renames files in the journal directory,
     which changes its mtime; appends do not *)
  let ckpts () = (Unix.stat x.jdir).Unix.st_mtime in
  let start = now () in
  Array.iteri
    (fun i op ->
      let before = if !Trace.on then ckpts () else 0.0 in
      let t0 = now () in
      if not (apply c inp op) then incr failed_tx;
      let t1 = now () in
      lat.(i) <- t1 -. t0;
      if !Trace.on then begin
        let id = Trace.fresh () in
        Trace.record ~id ~req:i "chain.block" t0 t1;
        Trace.record ~id:(Trace.fresh ()) ~parent:id ~req:i "evm.tx" t0 !(c.sealed_at);
        Trace.record ~id:(Trace.fresh ()) ~parent:id ~req:i "index.observe"
          !(c.sealed_at) t1;
        if ckpts () <> before then ckpt := (t1 -. t0) :: !ckpt
      end)
    ops;
  Idx.drain x.idx;
  let ingest_s = now () -. start in
  let hits0 = get "hits" evm0 and dec0 = get "decodes" evm0 in
  let evm1 = evm_pairs () in
  { lat; ingest_s; failed_tx = !failed_tx; checkpoint_lat = !ckpt;
    journal_bytes = dir_bytes x.jdir;
    index_diff = diff_pairs (Idx.stats x.idx) stats0;
    program =
      (get "hits" evm1 -. hits0, get "decodes" evm1 -. dec0) }

(* incremental == batch: the index's contents against a cold sweep of
   the live contracts. Returns the contents and the mismatch count. *)
let gate c x =
  let inc = Idx.contents x.idx in
  let live = T.live_contracts c.net in
  let batch = reference_verdicts (List.map snd live) in
  let bad =
    if List.length inc <> List.length live then
      abs (List.length inc - List.length live) + List.length live
    else
      List.fold_left2
        (fun n (ia, ic, ir) ((la, lc), br) ->
          if U.equal ia la && String.equal ic lc && normalize ir = br
          then n
          else n + 1)
        0 inc (List.combine live batch)
  in
  (List.map (fun (a, code, r) -> (a, code, normalize r)) inc, bad)

(* The same transactions on a chain with no index: the EVM's ceiling. *)
let replay inp ops =
  let c = genesis inp in
  let t0 = now () in
  Trace.span "evm.replay" (fun _ -> Array.iter (fun op -> ignore (apply c inp op)) ops);
  ratio (float_of_int (Array.length ops)) (now () -. t0)

let pass_layers inp ops p =
  let blocks = float_of_int (Array.length p.lat) in
  let hits, decodes = p.program in
  [ metric "evm.tx_us" "us" (Trace.mean_us "evm.tx");
    metric "index.observe_us" "us" (Trace.mean_us "index.observe");
    metric "index.checkpoint_block_us" "us"
      (1e6 *. median (Array.of_list p.checkpoint_lat));
    metric "index.reanalyses_per_block" "1/block"
      (ratio (get "index_reanalyses" p.index_diff) blocks);
    metric "index.lag_blocks_mean" "blocks"
      (ratio (get "index_lag_blocks_total" p.index_diff)
         (get "index_lag_verdicts" p.index_diff));
    metric "journal.bytes_per_block" "B/block"
      (ratio (float_of_int p.journal_bytes) blocks);
    metric "evm.replay_tx_per_s" "1/s" (replay inp ops);
    metric "evm.program_hit_ratio" "ratio" (ratio hits (hits +. decodes)) ]

(* Episode [e]'s inputs: its own ops, fleet and novel contracts. *)
let episode_inputs ~seed ~tiny e =
  let blocks = if tiny then 200 else episode_blocks in
  inputs ~seed:((seed * 131) + e) ~blocks ~fleet:(if tiny then 20 else 200 + (blocks / 50))

(* How many distinct episodes, and how often each runs. *)
let episodes (sz : size) =
  if sz.tiny then (1, 2)
  else
    ( distinct_episodes,
      max 2
        (int_of_float (sz.seconds *. reference_rate)
        / (episode_blocks * distinct_episodes)) )

(* Sums of several passes, for the layer metrics. *)
let merge ps =
  let sum f = List.fold_left (fun a p -> a +. f p) 0.0 ps in
  { lat = Array.concat (List.map (fun p -> p.lat) ps);
    ingest_s = sum (fun p -> p.ingest_s);
    failed_tx = List.fold_left (fun a p -> a + p.failed_tx) 0 ps;
    checkpoint_lat = List.concat_map (fun p -> p.checkpoint_lat) ps;
    journal_bytes = List.fold_left (fun a p -> a + p.journal_bytes) 0 ps;
    index_diff =
      List.map
        (fun k -> (k, sum (fun p -> get k p.index_diff)))
        [ "index_reanalyses"; "index_lag_blocks_total"; "index_lag_verdicts" ];
    program = (sum (fun p -> fst p.program), sum (fun p -> snd p.program)) }

type episode = {
  setup_s : float;
  pass : pass;
  cache : Cache.stats * Cache.stats;  (* front end, back end *)
  contents : (U.t * string * P.result) list;
  mismatches : int;
}

let episode ~workers ~jdir inp =
  let t0 = now () in
  let c, x = start ~workers ~jdir inp in
  let setup_s = now () -. t0 in
  let pass, cache = cache_window (fun () -> ingest c x inp inp.ops) in
  let contents, mismatches = gate c x in
  detach x;
  { setup_s; pass; cache; contents; mismatches }

let failures e = e.pass.failed_tx + e.mismatches

(* The per-layer metrics alone, for another workload's traced run:
   the metrics, the failed and the attempted blocks. *)
let layers ~seed ~workdir (sz : size) =
  let inp = episode_inputs ~seed ~tiny:sz.tiny 0 in
  let e = episode ~workers:pool_workers ~jdir:(Filename.concat workdir "journal") inp in
  (pass_layers inp inp.ops e.pass, failures e, Array.length inp.ops)

let run ~seed ~traced ~workdir (sz : size) : outcome =
  let d, repeats = episodes sz in
  let repeats = if traced then max 1 (repeats / 2) else repeats in
  let distinct = Array.init d (episode_inputs ~seed ~tiny:sz.tiny) in
  (* input generation's garbage is not the set-up's to collect *)
  Gc.compact ();
  (* the distinct episodes in turn, [repeats] times *)
  let order = List.init (d * repeats) (fun j -> j mod d) in
  let inps = List.map (fun e -> distinct.(e)) order in
  let n = List.length inps in
  let workers = pool_workers in
  let jdir = Filename.concat workdir "journal" in
  let run_all () = List.map (episode ~workers ~jdir) inps in
  let es, ts =
    if not traced then (run_all (), [])
    else begin
      (* every episode untraced and traced, alternating which goes first *)
      let pairs =
        List.mapi
          (fun i inp ->
            let one on = Trace.on := on; episode ~workers ~jdir inp in
            if i mod 2 = 0 then let u = one false in (u, one true)
            else let t = one true in (one false, t))
          inps
      in
      Trace.on := true;
      List.split pairs
    end
  in
  let p = merge (List.map (fun e -> e.pass) es) in
  let thr p = ratio (float_of_int (Array.length p.lat)) p.ingest_s in
  let blocks = Array.length p.lat in
  let bad = List.fold_left (fun a e -> a + e.mismatches) 0 es in
  let units = Hashtbl.create 8 in
  List.iter2 (fun k e -> add units k (e.pass.ingest_s, e.pass.lat)) order es;
  let headline, samples, rounds = headline units in
  let notes =
    [ ("nproc", string_of_int nproc); ("index_workers", string_of_int workers);
      ("sealing_threads", "1"); ("episodes", string_of_int n);
      ("distinct_episodes", string_of_int d);
      ("fleet_per_episode", string_of_int (Array.length (List.hd inps).fleet));
      ("blocks", string_of_int blocks); ("rounds", string_of_int rounds);
      ("samples_per_round", string_of_int samples);
      ("failed_transactions", string_of_int p.failed_tx);
      ("incremental_vs_batch_mismatches", string_of_int bad) ]
  in
  let e2e =
    headline
    @ [ metric "setup_s" "s" (median (Array.of_list (List.map (fun e -> e.setup_s) es))) ]
  in
  let failed = List.fold_left (fun a e -> a + failures e) 0 (es @ ts) in
  if not traced then { attempted = blocks; failed; e2e; layers = []; notes }
  else begin
    let differ =
      List.fold_left2 (fun a u t -> if u.contents = t.contents then a else a + 1) 0 es ts
    in
    let tp = merge (List.map (fun e -> e.pass) ts) in
    let first = distinct.(0) in
    let fe, be = List.split (List.map (fun e -> e.cache) es) in
    { attempted = 2 * blocks; failed = failed + differ; e2e;
      layers =
        cache_metrics ~items:blocks fe be @ pass_layers first first.ops tp
        @ [ metric "trace.overhead_frac" "ratio" (ratio (thr tp) (thr p)) ];
      notes = notes @ [ ("traced_contents_differ", string_of_int differ) ] }
  end
