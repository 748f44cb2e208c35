package repro.baselines

import java.util.SplittableRandom
import java.util.concurrent.atomic.AtomicIntegerArray
import repro.core.FrontierOps
import repro.graph.LocalGraph
import repro.util.Parallel

/** Pivot-based correlation clustering baselines (paper §4.2 / appendix C.1).
  *
  * KWIKCLUSTER (Ailon et al.): repeatedly pick a random unclustered pivot; the
  * pivot plus its unclustered neighbors form a cluster. On an unweighted graph
  * this optimizes the λ=0.5 complete-graph CC objective (3-approx for
  * minimizing disagreements) but, as the paper observes, typically yields a
  * NEGATIVE LambdaCC maximization objective.
  *
  * C4 (Pan et al.): parallel KwikCluster with concurrency control; equivalent
  * output to sequential KwikCluster on the priority order. Implemented as
  * rounds of local-minimum-priority MIS pivots where each unclustered vertex
  * joins its minimum-priority adjacent pivot only when no smaller-priority
  * unclustered neighbor remains undecided — which the round structure
  * guarantees, so the output matches the sequential algorithm on π.
  *
  * CLUSTERWILD! (Pan et al.): same rounds without concurrency control —
  * every unclustered neighbor of any pivot joins some adjacent pivot
  * immediately (ignoring conflicts), which merges clusters more aggressively.
  */
object KwikCluster {

  /** Random priority permutation shared by the sequential and parallel
    * variants, so C4 can be tested for exact output equivalence.
    */
  private[repro] def randomPriority(n: Int, seed: Long): Array[Int] = {
    val prio = Array.range(0, n)
    FrontierOps.shuffle(prio, new SplittableRandom(seed))
    prio
  }

  /** Sequential KwikCluster over a uniformly random permutation. */
  def sequential(g: LocalGraph, seed: Long = 1): Array[Int] =
    sequentialWithPriority(g, randomPriority(g.numVertices, seed))

  private[repro] def sequentialWithPriority(g: LocalGraph, prio: Array[Int]): Array[Int] = {
    val n = g.numVertices
    val order = Array.tabulate(n)(identity).sortBy(prio)
    val cluster = Array.fill(n)(-1)
    order.foreach { v =>
      if (cluster(v) == -1) {
        cluster(v) = v
        var e = g.offsets(v)
        while (e < g.offsets(v + 1)) {
          val u = g.nbrs(e)
          if (cluster(u) == -1) cluster(u) = v
          e += 1
        }
      }
    }
    cluster
  }

  /** C4: serializable parallel pivoting; output equals `sequential` on the
    * same priority permutation.
    */
  def c4(g: LocalGraph, seed: Long = 1): Array[Int] =
    c4LexMis(g, randomPriority(g.numVertices, seed))

  /** ClusterWild!: conflict-oblivious parallel pivoting. */
  def clusterWild(g: LocalGraph, seed: Long = 1): Array[Int] =
    wildRounds(g, randomPriority(g.numVertices, seed))

  /** C4: sequential KwikCluster on π equals the lexicographically-first MIS
    * over priorities (pivots) + attaching every non-pivot to its
    * minimum-priority adjacent pivot. The MIS is computed by a monotone
    * parallel fixpoint (states only move undecided→IN/OUT and every decision
    * is forced, so intra-round races are benign).
    */
  private def c4LexMis(g: LocalGraph, prio: Array[Int]): Array[Int] = {
    val n = g.numVertices
    val Undecided = 0; val In = 1; val Out = 2
    val state = new AtomicIntegerArray(n)
    var remaining = n
    while (remaining > 0) {
      Parallel.forRange(n) { v =>
        if (state.get(v) == Undecided) {
          var anyIn = false; var allDecided = true
          var e = g.offsets(v)
          while (e < g.offsets(v + 1)) {
            val u = g.nbrs(e)
            if (prio(u) < prio(v)) {
              val s = state.get(u)
              if (s == In) anyIn = true
              else if (s == Undecided) allDecided = false
            }
            e += 1
          }
          if (anyIn) state.set(v, Out)
          else if (allDecided) state.set(v, In)
        }
      }
      var rem = 0
      var v = 0
      while (v < n) { if (state.get(v) == Undecided) rem += 1; v += 1 }
      require(rem < remaining, "lex-MIS rounds must make progress")
      remaining = rem
    }
    val cluster = new Array[Int](n)
    Parallel.forRange(n) { v =>
      if (state.get(v) == In) cluster(v) = v
      else {
        var best = -1; var bestP = Int.MaxValue
        var e = g.offsets(v)
        while (e < g.offsets(v + 1)) {
          val u = g.nbrs(e)
          if (state.get(u) == In && prio(u) < bestP) { bestP = prio(u); best = u }
          e += 1
        }
        cluster(v) = best
      }
    }
    cluster
  }

  /** ClusterWild!: rounds of local-minimum pivots; unclustered neighbors grab
    * any adjacent pivot immediately, ignoring serialization conflicts.
    */
  private def wildRounds(g: LocalGraph, prio: Array[Int]): Array[Int] = {
    val n = g.numVertices
    val cluster = new AtomicIntegerArray(n)
    (0 until n).foreach(cluster.set(_, -1))
    var remaining = n
    while (remaining > 0) {
      val isPivot = new Array[Boolean](n)
      Parallel.forRange(n) { v =>
        if (cluster.get(v) == -1) {
          var minP = prio(v)
          var e = g.offsets(v)
          while (e < g.offsets(v + 1)) {
            val u = g.nbrs(e)
            if (cluster.get(u) == -1 && prio(u) < minP) minP = prio(u)
            e += 1
          }
          if (minP == prio(v)) isPivot(v) = true
        }
      }
      Parallel.forRange(n)(v => if (isPivot(v)) cluster.set(v, v))
      Parallel.forRange(n) { v =>
        if (cluster.get(v) == -1) {
          var e = g.offsets(v)
          var done = false
          while (e < g.offsets(v + 1) && !done) {
            val u = g.nbrs(e)
            if (isPivot(u)) { cluster.set(v, u); done = true }
            e += 1
          }
        }
      }
      var rem = 0
      var v = 0
      while (v < n) { if (cluster.get(v) == -1) rem += 1; v += 1 }
      require(rem < remaining, "pivot rounds must make progress")
      remaining = rem
    }
    Array.tabulate(n)(cluster.get)
  }
}
