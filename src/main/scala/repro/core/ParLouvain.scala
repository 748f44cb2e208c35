package repro.core

import java.util.SplittableRandom
import java.util.concurrent.atomic.LongAdder
import repro.graph.LocalGraph
import repro.util.{AtomicDoubleArray, IntDoubleMap, Parallel}

/** PARALLEL-CC (paper Alg. 1): the shared-memory parallel Louvain relaxation.
  *
  * In the **async** setting every worker applies its vertex's move
  * immediately: the cluster id write (a plain int store, which cannot tear)
  * and the two cluster-weight updates (CAS adds) are separate operations with
  * no synchronization, so concurrent best-move computations read racy
  * snapshots — exactly the paper's relaxed-consistency scheme that provides
  * symmetry breaking; `invokeAll` orders one pass before the next. In the
  * **sync** setting every target is chosen against the frozen state first,
  * and only then are the moves applied, through the same updates as async;
  * this reproduces the Figure-1 pathology (vertices oscillating into each
  * other's clusters).
  * `SeqLouvain` runs this BEST-MOVES body at one thread, async, seeded order.
  *
  * Per level the body keeps only what the moves need: a cluster id per
  * vertex, a weight per cluster and the pass stamps of the next frontier.
  * There are no cluster-size counters: a vertex alone in its cluster scores
  * 0 for detaching, which the `> best + Eps` test in [[choose]] rejects.
  *
  * Every call keeps a gain ledger: [[choose]] adds the score of the move it
  * picks to its worker's slot, and the slots are summed after each pass. An
  * async call with a pass cap stops after a pass that gains less than
  * `PassTol` of the call's gain so far, and reports `anyMoved = false` when
  * the whole call gains less than `AggTol` of the level's objective after it,
  * which stops coarsening (the pass and aggregation tolerances of
  * GVE-Louvain, Sahu, arXiv:2312.04876). Sync and `toConvergence` calls keep
  * every pass and level the paper's Alg. 1 runs.
  */
object ParLouvain extends LouvainEngine {

  private val Eps = 1e-11

  /** A pass gaining less than this share of its call's gain so far ends the call. */
  private val PassTol = 0.02

  /** A level gaining less than this share of its objective ends coarsening. */
  private val AggTol = 0.05

  /** Ledger slots sit this many doubles apart, one 64-byte cache line. */
  private val Stride = 8

  /** BEST-MOVES' move rule (paper Alg. 1 line 7, appendix A), shared by every
    * engine that scores moves: the target for a vertex of weight `kU` in
    * cluster `c`, given `map`, its edge weight into each neighbouring cluster
    * in first-appearance order, and the cluster weights `kC`. A candidate
    * must beat the best so far by more than `Eps`, so ties go to the first in
    * `map`; staying scores 0. Detaching to the fresh id `spare` is tried last;
    * alone in c, the vertex has wToC = 0 and K_c = kU, so detaching scores 0
    * and fails. With a `ledger`, the chosen move's score is added at
    * `ledger(slot)`.
    */
  private[repro] def choose(map: IntDoubleMap, c: Int, kU: Double, lambda: Double,
                            kC: AtomicDoubleArray, spare: Int,
                            ledger: Array[Double] = null, slot: Int = 0): Int = {
    val kCc       = kC.get(c)
    val wToC      = map.getOrElse(c, 0.0)
    var bestDelta = 0.0
    var bestT     = c
    var e = 0
    while (e < map.size) {
      val c2 = map.keyAt(e)
      if (c2 != c) {
        val d = Objective.moveDelta(kU, lambda, wToC, kCc, map.valueAt(e), kC.get(c2))
        if (d > bestDelta + Eps) { bestDelta = d; bestT = c2 }
      }
      e += 1
    }
    val detach = Objective.moveDelta(kU, lambda, wToC, kCc, 0.0, 0.0)
    if (detach > bestDelta + Eps) { bestDelta = detach; bestT = spare }
    if (ledger != null) ledger(slot) += bestDelta
    bestT
  }

  override def compressionThreads(opts: LouvainOptions): Int = opts.threads

  override def bestMoves(
      g: LocalGraph, lambda: Double, opts: LouvainOptions,
      rng: SplittableRandom, init: Array[Int]): BestMovesResult =
    run(g, lambda, opts, init, order = None)

  /** BEST-MOVES on one level. With `order`, each pass first visits the
    * frontier in a fresh permutation drawn from it (SEQUENTIAL-CC's σ).
    */
  private[core] def run(
      g: LocalGraph, lambda: Double, opts: LouvainOptions,
      init: Array[Int], order: Option[SplittableRandom]): BestMovesResult = {
    val n       = g.numVertices
    val threads = opts.threads
    val offs    = g.offsets; val nbrs = g.nbrs; val wgts = g.wgts
    val cluster = init.clone()
    val kOf     = g.vertexWeight
    val kC      = new AtomicDoubleArray(2 * n)  // cluster weight; ids ≥ n are detach spares
    var v = 0
    while (v < n) { kC.add(init(v), kOf(v)); v += 1 }

    // Per-worker scratch map for the neighbor-cluster aggregation, and
    // per-worker ledger slots for the scores of the chosen moves.
    val workers = math.max(1, threads)
    val maps    = Array.fill(workers)(new IntDoubleMap(2 * n))
    val ledger  = new Array[Double](Stride * workers)
    val tolerant = opts.mode == MoveMode.Async && opts.numIter != Int.MaxValue

    // Pass stamps, never cleared: next(v) == pass puts v in the next frontier,
    // touched(c) == pass marks a cluster a move left or entered. Concurrent
    // writers store the same value.
    val next       = new Array[Int](if (opts.frontier == Frontier.AllVertices) 0 else n)
    val touched    = new Array[Int](if (opts.frontier == Frontier.NbrsOfClusters) 2 * n else 0)
    val moved      = new LongAdder
    var frontier   = Array.range(0, n)
    var passes     = 0
    var anyMoved   = false
    var gain       = 0.0
    var timedOut   = false
    var break      = false

    /** Best target for `u` under one (possibly racy) read of its cluster's weight. */
    def bestTarget(u: Int, w: Int): Int = {
      val c   = cluster(u)
      val map = maps(w)
      map.clear()
      var i = offs(u)
      val end = offs(u + 1)
      while (i < end) { map.addTo(cluster(nbrs(i)), wgts(i)); i += 1 }
      choose(map, c, kOf(u), lambda, kC, n + u, ledger, Stride * w)
    }

    def stampNbrs(u: Int): Unit = {
      var j = offs(u)
      val end = offs(u + 1)
      while (j < end) { next(nbrs(j)) = passes; j += 1 }
    }

    def applyMove(u: Int, to: Int): Unit = {
      val from = cluster(u)
      if (to != from) {
        cluster(u) = to
        kC.add(from, -kOf(u)); kC.add(to, kOf(u))
        moved.increment()
        opts.frontier match {
          case Frontier.AllVertices    =>
          case Frontier.NbrsOfVertices => stampNbrs(u)
          case Frontier.NbrsOfClusters => touched(from) = passes; touched(to) = passes
        }
      }
    }

    while (!break && passes < opts.numIter && frontier.nonEmpty) {
      if (System.nanoTime() > opts.deadlineNanos) { timedOut = true; break = true }
      else {
        passes += 1
        order.foreach(FrontierOps.shuffle(frontier, _))
        val front = frontier // capture for lambda

        opts.mode match {
          case MoveMode.Async =>
            Parallel.forWorkers(front.length, threads) { (w, fi) => val u = front(fi); applyMove(u, bestTarget(u, w)) }
          case MoveMode.Sync =>
            // Every target against the frozen state (Line 7 only), then the moves.
            val desired = new Array[Int](front.length)
            Parallel.forWorkers(front.length, threads)((w, fi) => desired(fi) = bestTarget(front(fi), w))
            Parallel.forRange(front.length, threads)(fi => applyMove(front(fi), desired(fi)))
        }

        var passGain = 0.0
        var w = 0
        while (w < workers) { passGain += ledger(Stride * w); ledger(Stride * w) = 0.0; w += 1 }
        gain += passGain

        if (moved.sumThenReset() == 0L) break = true
        else {
          anyMoved = true
          if (tolerant && passGain < PassTol * gain) break = true
          else frontier = opts.frontier match {
            case Frontier.AllVertices    => Array.range(0, n)
            case Frontier.NbrsOfVertices => FrontierOps.stamped(next, passes)
            case Frontier.NbrsOfClusters =>
              Parallel.forRange(n, threads)(u => if (touched(cluster(u)) == passes) stampNbrs(u))
              FrontierOps.stamped(next, passes)
          }
        }
      }
    }
    // Compression preserves CC, so the singleton clustering of this level
    // scores what the levels below it gained.
    if (tolerant && anyMoved) {
      var base = 0.0
      v = 0
      while (v < n) {
        base += g.selfLoop(v) - lambda / 2 * (kOf(v) * kOf(v) - g.sqWeight(v))
        v += 1
      }
      if (gain < AggTol * (base + gain)) anyMoved = false
    }
    BestMovesResult(cluster, passes, anyMoved, timedOut, gain)
  }
}
