package repro.core

import java.util.SplittableRandom
import java.util.concurrent.atomic.{AtomicIntegerArray, LongAdder}
import repro.graph.LocalGraph
import repro.util.{AtomicDoubleArray, IntDoubleMap, Parallel}

/** PARALLEL-CC (paper Alg. 1): the shared-memory parallel Louvain relaxation.
  *
  * In the **async** setting every worker applies its vertex's move
  * immediately: the cluster id write and the two cluster-weight updates are
  * separate atomic operations with no synchronization, so concurrent best-move
  * computations read racy snapshots — exactly the paper's relaxed-consistency
  * scheme that provides symmetry breaking. In the **sync** setting all desired
  * moves are computed against a frozen snapshot and applied together, after
  * which cluster weights are rebuilt by parallel aggregation; this reproduces
  * the Figure-1 pathology (vertices oscillating into each other's clusters).
  * `SeqLouvain` runs this BEST-MOVES body at one thread, async, seeded order.
  */
object ParLouvain extends LouvainEngine {

  private val Eps = 1e-11

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
    val cluster = new AtomicIntegerArray(2 * n) // only [0,n) used as indices
    val kOf     = g.vertexWeight
    val kC      = new AtomicDoubleArray(2 * n)  // cluster weight; ids ≥ n are detach spares
    val size    = new AtomicIntegerArray(2 * n)
    var v = 0
    while (v < n) { cluster.set(v, init(v)); kC.add(init(v), kOf(v)); size.incrementAndGet(init(v)); v += 1 }

    // Per-thread scratch map for the neighbor-cluster aggregation.
    val tlMap = ThreadLocal.withInitial[IntDoubleMap](() => new IntDoubleMap(64))

    val mark       = new Array[Boolean](n)
    val affected   = new Array[Boolean](2 * n) // benign races: monotonic writes
    val movedFlag  = new Array[Boolean](n)     // single writer per index
    var frontier   = FrontierOps.all(n)
    var passes     = 0
    var anyMoved   = false
    var timedOut   = false
    var break      = false

    /** Best target for `u` under one (possibly racy) read of its cluster's weight. */
    def bestTarget(u: Int): Int = {
      val c   = cluster.get(u)
      val kU  = kOf(u)
      val kCc = kC.get(c)
      val map = tlMap.get()
      map.clear()
      var i = g.offsets(u)
      while (i < g.offsets(u + 1)) { map.addTo(cluster.get(g.nbrs(i)), g.wgts(i)); i += 1 }
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
      if (size.get(c) > 1 && Objective.moveDelta(kU, lambda, wToC, kCc, 0.0, 0.0) > bestDelta + Eps)
        bestT = n + u
      bestT
    }

    def applyMove(u: Int, from: Int, to: Int): Unit = {
      cluster.set(u, to)
      kC.add(from, -kOf(u)); kC.add(to, kOf(u))
      size.decrementAndGet(from); size.incrementAndGet(to)
      movedFlag(u) = true
      if (opts.frontier == Frontier.NbrsOfClusters) { affected(from) = true; affected(to) = true }
    }

    while (!break && passes < opts.numIter && frontier.nonEmpty) {
      if (System.nanoTime() > opts.deadlineNanos) { timedOut = true; break = true }
      else {
        passes += 1
        order.foreach(FrontierOps.shuffle(frontier, _))
        java.util.Arrays.fill(movedFlag, false)
        if (opts.frontier == Frontier.NbrsOfClusters) java.util.Arrays.fill(affected, false)
        val movedCount = new LongAdder
        val front = frontier // capture for lambda

        opts.mode match {
          case MoveMode.Async =>
            Parallel.forRange(front.length, threads) { fi =>
              val u = front(fi)
              val c = cluster.get(u)
              val t = bestTarget(u)
              if (t != c) { applyMove(u, c, t); movedCount.increment() }
            }
          case MoveMode.Sync =>
            // Phase 1: desired moves against the frozen state (Line 7 only).
            val desired = new Array[Int](front.length)
            Parallel.forRange(front.length, threads)(fi => desired(fi) = bestTarget(front(fi)))
            // Phase 2: apply all moves, then rebuild aggregates in parallel.
            Parallel.forRange(front.length, threads) { fi =>
              val u = front(fi)
              val t = desired(fi)
              if (t != cluster.get(u)) {
                val c = cluster.get(u)
                cluster.set(u, t)
                movedFlag(u) = true
                movedCount.increment()
                if (opts.frontier == Frontier.NbrsOfClusters) { affected(c) = true; affected(t) = true }
              }
            }
            Parallel.forRange(2 * n, threads) { i => kC.set(i, 0.0); size.set(i, 0) }
            Parallel.forRange(n, threads) { u =>
              val c = cluster.get(u)
              kC.add(c, kOf(u)); size.incrementAndGet(c)
            }
        }

        if (movedCount.sum() == 0L) break = true
        else {
          anyMoved = true
          frontier = opts.frontier match {
            case Frontier.AllVertices    => FrontierOps.all(n)
            case Frontier.NbrsOfVertices => FrontierOps.nbrsOfVertices(g, movedFlag, mark, threads)
            case Frontier.NbrsOfClusters => FrontierOps.nbrsOfClusters(g, cluster, affected, mark, threads)
          }
        }
      }
    }
    val out = new Array[Int](n)
    v = 0
    while (v < n) { out(v) = cluster.get(v); v += 1 }
    BestMovesResult(out, passes, anyMoved, timedOut)
  }
}
