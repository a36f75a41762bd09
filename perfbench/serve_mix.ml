(* [serve_mix]: one closed-loop client sends single compile lines through
   [Cache.Daemon.handle_line], the production request loop without its
   stdio framing.  The daemon is backed by a [Cache.Service] with a disk
   store in a fresh directory and a memory tier smaller than the
   distinct-key working set, so requests hit memory, hit disk, compile
   incrementally or compile cold.

   The request mix (see [generate]) is made from the seed during set-up:
   registry programs by name with varied target and coarsening, and
   inline [src] pipelines from a template family.  Most requests repeat
   an earlier key with skewed popularity; some edit one constant of an
   earlier [src] program, which keeps its skeleton and takes the
   incremental path; the rest are new keys.  The run ends when the
   jobs' seconds are spent or the [requests_per_run] lines are.

   After the timed region every hit and miss response must be
   byte-identical, id aside, to the response a cold compile of the same
   request gives.  Incremental responses are not compared (a degraded
   warm start may legitimately differ and is then not cached); the hits
   that follow them are. *)

module J = Obs.Report

let memory_capacity = 32
let requests_per_run = 40_000

(* --- the src template family --- *)

type stage = Scale | Fir3 | Down2 | Up2 | Dup2

type program = { stages : stage array; consts : float array }

let const st = float_of_int (1 + Random.State.int st 16) /. 4.0

let random_program st =
  let kinds = [| Scale; Fir3; Down2; Up2; Dup2 |] in
  let n = 2 + Random.State.int st 4 in
  let stages = Array.init n (fun _ -> kinds.(Random.State.int st 5)) in
  (* one constant for the source and one per stage (two for Dup2) *)
  { stages; consts = Array.init (1 + (2 * n)) (fun _ -> const st) }

let edit st p =
  let consts = Array.copy p.consts in
  let i = Random.State.int st (Array.length consts) in
  let rec fresh () =
    let c = const st in
    if c = consts.(i) then fresh () else c
  in
  consts.(i) <- fresh ();
  { p with consts }

let source p =
  let b = Buffer.create 512 in
  let k i = Printf.sprintf "%.2f" p.consts.(i) in
  Printf.bprintf b "filter S pop 0 push 1 { push(%s); } " (k 0);
  Array.iteri
    (fun i s ->
      let c = k (1 + (2 * i)) and c2 = k (2 + (2 * i)) in
      match s with
      | Scale ->
        Printf.bprintf b "filter F%d pop 1 push 1 { push(pop() * %s); } " i c
      | Fir3 ->
        Printf.bprintf b
          "filter F%d pop 1 push 1 peek 3 { push(peek(0) * %s + peek(1) + \
           peek(2)); let _d = pop(); } "
          i c
      | Down2 ->
        Printf.bprintf b
          "filter F%d pop 2 push 1 { let a = pop(); let b = pop(); push(a * %s \
           + b); } "
          i c
      | Up2 ->
        Printf.bprintf b
          "filter F%d pop 1 push 2 { let a = pop(); push(a); push(a * %s); } " i c
      | Dup2 ->
        Printf.bprintf b
          "filter F%da pop 1 push 1 { push(pop() * %s); } filter F%db pop 1 \
           push 1 { push(pop() + %s); } splitjoin F%d { split duplicate; add \
           F%da; add F%db; join roundrobin(1, 1); } "
          i c i c2 i i i)
    p.stages;
  Buffer.add_string b
    "filter Z pop 1 push 0 { let x = pop(); } pipeline P { add S; ";
  Array.iteri (fun i _ -> Printf.bprintf b "add F%d; " i) p.stages;
  Buffer.add_string b "add Z; }";
  Buffer.contents b

(* --- the request mix --- *)

type key =
  | Registry of string * int * string  (** program, coarsening, target *)
  | Src of program * int

let targets = [| "cuda"; "wgsl"; "opencl"; "metal" |]
let coarsenings = [| 1; 4; 8 |]

let body = function
  | Registry (name, c, t) ->
    Printf.sprintf "\"program\":%s,\"coarsening\":%d,\"target\":\"%s\""
      (J.to_string (J.Str name)) c t
  | Src (p, c) ->
    Printf.sprintf "\"src\":%s,\"coarsening\":%d"
      (J.to_string (J.Str (source p)))
      c

let line id k =
  Printf.sprintf "{\"id\":%d,\"op\":\"compile\",%s,\"artifacts\":[\"kernel\"]}" id
    (body k)

(* A growable array. *)
type 'a pool = { mutable items : 'a array; mutable n : int }

let push pool x =
  if pool.n = Array.length pool.items then begin
    let a = Array.make (max 64 (2 * pool.n)) x in
    Array.blit pool.items 0 a 0 pool.n;
    pool.items <- a
  end;
  pool.items.(pool.n) <- x;
  pool.n <- pool.n + 1

(* Index in [0, n) skewed towards 0: P(i < k) = sqrt(k / n). *)
let skewed st n =
  let r = Random.State.float st 1.0 in
  min (n - 1) (int_of_float (float_of_int n *. r *. r))

let registry_keys =
  List.concat_map
    (fun name ->
      List.concat_map
        (fun c ->
          List.map (fun t -> Registry (name, c, t)) (Array.to_list targets))
        (Array.to_list coarsenings))
    Benchmarks.Registry.names

(* The mix, with fixed shares over the whole run.  30% of requests name
   a registry program with a target and coarsening, one of 96 keys: the
   program and target uniformly, the coarsening with skewed popularity
   (so every seed sees the same spread of entry sizes).  The daemon
   compiled each of these keys before the run (see [warm_up]), so they
   hit its memory or disk tier.  The other 70%
   send src: 80% of those repeat an earlier src key, most likely a
   recent one; 10% edit one constant of an earlier src program (same
   skeleton: the incremental path); 10% are new programs. *)
let generate seed =
  let st = Random.State.make [| 0x5e7e; seed |] in
  let programs_by_name = Array.of_list Benchmarks.Registry.names in
  let coarsenings_by_popularity =
    Array.of_list (Cold.shuffle st (Array.to_list coarsenings))
  in
  let registry () =
    let pick a = a.(Random.State.int st (Array.length a)) in
    let name = pick programs_by_name and target = pick targets in
    let c = coarsenings_by_popularity.(skewed st (Array.length coarsenings)) in
    Registry (name, c, target)
  in
  let programs = { items = [||]; n = 0 } and keys = { items = [||]; n = 0 } in
  let new_key p =
    push programs p;
    let c = coarsenings.(Random.State.int st (Array.length coarsenings)) in
    let k = Src (p, c) in
    push keys k;
    k
  in
  let next () =
    if Random.State.float st 1.0 < 0.30 then registry ()
    else
      let u = Random.State.float st 1.0 in
      if keys.n = 0 || u < 0.10 then new_key (random_program st)
      else if u < 0.20 then
        new_key (edit st programs.items.(Random.State.int st programs.n))
      else keys.items.(keys.n - 1 - skewed st keys.n)
  in
  Array.init requests_per_run (fun i -> line (i + 1) (next ()))

(* --- the daemon --- *)

let lookup_program name =
  match Benchmarks.Registry.find name with
  | None -> Error ("unknown program " ^ name)
  | Some e -> (
    let stream = e.Benchmarks.Registry.stream () in
    match Streamit.Ast.validate stream with
    | Error m -> Error ("invalid stream: " ^ m)
    | Ok () -> Ok (Streamit.Flatten.flatten stream))

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* A new directory name per set-up: later set-ups must not touch the
   store the run is using. *)
let dirs_made = ref 0

let fresh_dir tag seed =
  incr dirs_made;
  let dir =
    Printf.sprintf "%s/serve-%s-%d-%d-%d" (Report.out_dir ()) tag seed
      (Unix.getpid ()) !dirs_made
  in
  if Sys.file_exists dir then remove_tree dir;
  dir

(* The response without its leading id: a function of the key, the
   outcome and the requested artifacts. *)
let without_id resp =
  match String.index_opt resp ',' with
  | Some i -> String.sub resp i (String.length resp - i)
  | None -> resp

(* The outcome a response reports; the field sits near its start. *)
let outcome_of resp =
  let head = String.sub resp 0 (min 160 (String.length resp)) in
  let has sub = Report.contains ~sub head in
  if has "\"cache\":\"hit\"" then `Hit
  else if has "\"cache\":\"miss\"" then `Miss
  else if has "\"cache\":\"incremental\"" then `Incremental
  else `Error

let outcome_name = function
  | `Hit -> "hit"
  | `Miss -> "miss"
  | `Incremental -> "incremental"
  | `Error -> "error"

type daemon = {
  d : Cache.Daemon.t;
  dir : string;
  probe_dir : string;
  probe : Cache.Store.t;  (** the traced run's shadow store for timing puts *)
  lines : string array;
}

let setup seed () =
  let dir = fresh_dir "store" seed and probe_dir = fresh_dir "probe" seed in
  let lines = generate seed in
  let service = Cache.Service.create ~dir ~capacity:memory_capacity () in
  {
    d = Cache.Daemon.create ~lookup_program service;
    dir;
    probe_dir;
    probe = Cache.Store.create ~dir:probe_dir ~capacity:memory_capacity ();
    lines;
  }

let mem_hits = Obs.Metrics.counter "cache.store.mem_hits"
let disk_hits = Obs.Metrics.counter "cache.store.disk_hits"
let shed = Obs.Metrics.counter "serve.guard.shed"

(* One request decomposed into the layers [handle_line] runs, each call
   under its own span: protocol decode, admission, parse, flatten, then
   the cache get — key digest and store lookup, and on a miss the
   service's get, which compiles — named by its outcome, and the
   response.  A newly compiled entry is also written to a shadow store
   after the request, to time a store put.  Returns the response and the
   entry to put, if any. *)
let traced_request t line =
  let module P = Cache.Protocol in
  match Span.with_ "cache.protocol" (fun () -> P.parse_request line) with
  | Error m -> (P.error_response m, None)
  | Ok req -> (
    let guard = Cache.Daemon.guard t.d in
    match Span.with_ "cache.guard" (fun () -> Cache.Guard.try_admit guard) with
    | Cache.Guard.Shed { reason; retry_after_ms } ->
      (P.overloaded_response ~req ~reason ~retry_after_ms (), None)
    | Cache.Guard.Admitted ticket ->
      Fun.protect
        ~finally:(fun () -> Cache.Guard.release guard ticket)
        (fun () ->
          let stream =
            Span.with_ "frontend.parse" (fun () ->
                match (req.P.program, req.P.src) with
                | Some name, None ->
                  Option.map
                    (fun e -> e.Benchmarks.Registry.stream ())
                    (Benchmarks.Registry.find name)
                | None, Some src -> Some (Frontend.Parser.parse_program src)
                | _ -> None)
          in
          let graph =
            Span.with_ "streamit.flatten" (fun () ->
                match stream with
                | Some s when Streamit.Ast.validate s = Ok () ->
                  Some (Streamit.Flatten.flatten s)
                | _ -> None)
          in
          match (graph, Cache.Daemon.options_of_request req) with
          | None, _ -> (P.error_response ~req "no program", None)
          | _, Error m -> (P.error_response ~req m, None)
          | Some g, Ok opts -> (
            let service = Cache.Daemon.service t.d in
            let got =
              Span.with_dyn (fun () ->
                  let key =
                    Span.with_ "cache.key" (fun () -> Cache.Key.digest g opts)
                  in
                  let m0 = Obs.Metrics.value mem_hits in
                  match
                    Span.with_ "cache.store.find" (fun () ->
                        Cache.Store.find (Cache.Service.store service) key)
                  with
                  | Some e ->
                    Layers.incr "cache.store_hits";
                    Layers.add "cache.mem_hits"
                      (float_of_int (Obs.Metrics.value mem_hits - m0));
                    (Ok (e, Cache.Service.Hit), "cache.get.hit")
                  | None -> (
                    match Cache.Service.get ~warm:req.P.warm service g opts with
                    | Ok (_, o) as r ->
                      (r, "cache.get." ^ Cache.Service.outcome_name o)
                    | Error _ as r -> (r, "cache.get.error")))
            in
            match got with
            | Error m -> (P.error_response ~req m, None)
            | Ok (e, outcome) ->
              ( Span.with_ "cache.protocol" (fun () ->
                    P.ok_response req e outcome),
                if outcome = Cache.Service.Hit then None else Some e ))))

let handle t ~trace line =
  if trace then traced_request t line
  else
    match Cache.Daemon.handle_line t.d line with
    | `Reply r | `Shutdown r -> (r, None)

(* Every hit and miss response must equal, id aside, the response built
   from a cold compile of its request in a fresh memory-only service
   without warm starts. *)
let verify t records =
  let cold = Cache.Service.create ~capacity:1 () in
  let memo = Hashtbl.create 1024 in
  let expected line =
    let body = without_id line in
    match Hashtbl.find_opt memo body with
    | Some d -> d
    | None ->
      let d =
        match Cache.Protocol.parse_request line with
        | Error m -> Error ("unparsable: " ^ m)
        | Ok req -> (
          match
            ( Cache.Daemon.graph_of_request t.d req,
              Cache.Daemon.options_of_request req )
          with
          | Ok g, Ok opts -> (
            match Cache.Service.get ~warm:false cold g opts with
            | Ok (e, _) ->
              let digest o =
                Digest.string (without_id (Cache.Protocol.ok_response req e o))
              in
              Ok (digest Cache.Service.Hit, digest Cache.Service.Miss)
            | Error m -> Error ("cold compile failed: " ^ m))
          | Error m, _ | _, Error m -> Error ("bad request: " ^ m))
      in
      Hashtbl.replace memo body d;
      d
  in
  List.filter_map
    (fun (i, outcome, digest) ->
      let fail m =
        Some
          (Printf.sprintf "request %d (%s): %s" (i + 1) (outcome_name outcome) m)
      in
      match (outcome, expected t.lines.(i)) with
      | (`Incremental | `Error), _ -> None
      | _, Error m -> fail m
      | `Hit, Ok (d, _) | `Miss, Ok (_, d) ->
        if d = digest then None
        else fail "response differs from a cold compile's")
    records

(* SWP speedup of each registry program at each coarsening served. *)
let registry_speedups t records =
  let seen = Hashtbl.create 32 in
  List.iter
    (fun (i, _, _) ->
      match Cache.Protocol.parse_request t.lines.(i) with
      | Ok { Cache.Protocol.program = Some name; coarsening; _ } ->
        Hashtbl.replace seen (name, coarsening) ()
      | _ -> ())
    records;
  Hashtbl.fold
    (fun (name, coarsening) () acc ->
      match lookup_program name with
      | Error _ -> acc
      | Ok g -> (
        match Swp_core.Compile.compile ~coarsening g with
        | Ok c -> Cold.speedup c :: acc
        | Error _ -> acc))
    seen []

(* A long-running daemon compiled the registry long ago: each registry
   key is requested once before the timed region, so the heaviest
   compiles (measured by cold16) do not sit, in a fixed number, at the
   top of a run's latency tail. *)
let warm_up t =
  List.iter
    (fun k ->
      match outcome_of (fst (handle t ~trace:false (line 0 k))) with
      | `Miss -> ()
      | o -> failwith ("serve_mix warm-up: registry key was a " ^ outcome_name o))
    registry_keys

let run ~seed ~seconds ~trace : Report.outcome =
  let dirs = ref [] in
  let setup, t =
    Report.start_setup ~seconds (fun () ->
        let t = setup seed () in
        dirs := t.dir :: t.probe_dir :: !dirs;
        t)
  in
  Swp_core.Profile.clear_cache ();
  warm_up t;
  let shed0 = Obs.Metrics.value shed
  and m0 = Obs.Metrics.value mem_hits
  and d0 = Obs.Metrics.value disk_hits in
  let lat = ref [] and records = ref [] and errors = ref [] in
  let busy = ref 0.0 and i = ref 0 in
  let counts = Hashtbl.create 4 in
  let min_n = Stats.samples_for 99.0 in
  let cal = Calib.create () and refs = ref [] in
  while (!busy < seconds || !i < min_n) && !i < Array.length t.lines do
    Report.tick_setup setup;
    let line = t.lines.(!i) in
    Calib.start cal;
    let resp, dt =
      Span.in_request (fun () ->
          let t0 = Resil.Clock.now () in
          let resp, put = Span.with_ "request" (fun () -> handle t ~trace line) in
          let dt = Resil.Clock.now () -. t0 in
          Option.iter
            (fun e ->
              Span.with_ "cache.store.put" (fun () -> Cache.Store.put t.probe e))
            put;
          (resp, dt))
    in
    busy := !busy +. dt;
    lat := (dt *. 1000.0) :: !lat;
    refs := Calib.finish cal ~op_s:dt :: !refs;
    let o = outcome_of resp in
    Hashtbl.replace counts o
      (1 + Option.value (Hashtbl.find_opt counts o) ~default:0);
    (match o with
    | `Error ->
      errors := Printf.sprintf "request %d: %s" (!i + 1) resp :: !errors
    | _ ->
      records :=
        (!i, o, Digest.string (without_id resp)) :: !records);
    incr i
  done;
  let n = !i in
  let count o = Option.value (Hashtbl.find_opt counts o) ~default:0 in
  let share o = float_of_int (count o) /. float_of_int n in
  Layers.set "cache.requests" (float_of_int n);
  Layers.set "cache.hits" (float_of_int (count `Hit));
  Layers.set "cache.incrementals" (float_of_int (count `Incremental));
  Layers.set "cache.guard.shed" (float_of_int (Obs.Metrics.value shed - shed0));
  (* the traced run's own store lookup counts its hits *)
  let mem, disk =
    if trace then
      let mem = int_of_float (Layers.get "cache.mem_hits") in
      (mem, int_of_float (Layers.get "cache.store_hits") - mem)
    else (Obs.Metrics.value mem_hits - m0, Obs.Metrics.value disk_hits - d0)
  in
  let records = List.rev !records in
  let check_errors = verify t records in
  let speedups = registry_speedups t records in
  List.iter (fun d -> if Sys.file_exists d then remove_tree d) !dirs;
  let ops_ms = Array.of_list (List.rev !lat) in
  let errors = List.rev !errors @ check_errors in
  let speedup_geomean = Stats.geomean speedups in
  {
    Report.attempted = n;
    failed = List.length errors;
    errors;
    setup_s = Report.setup_times setup;
    ops_ms;
    ref_ms = Array.of_list (List.rev !refs);
    tail_pct = 99.0;
    named =
      Report.timing_block ~prefix:"req" ~rate_name:"req_per_s" ~tail_pct:99.0
        ops_ms
      @ [
          Report.named ~samples:n "hit_share" "ratio" (share `Hit);
          Report.named ~samples:n "incremental_share" "ratio"
            (share `Incremental);
          Report.named ~samples:n "miss_share" "ratio" (share `Miss);
          Report.named ~samples:(mem + disk) "mem_hit_share" "ratio"
            (float_of_int mem /. float_of_int (max 1 (mem + disk)));
          Report.named ~samples:(List.length speedups) "speedup_geomean" "x"
            speedup_geomean;
        ];
  }
