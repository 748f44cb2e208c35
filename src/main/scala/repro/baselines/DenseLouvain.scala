package repro.baselines

import java.util.SplittableRandom
import repro.core.{FrontierOps, Objective}
import repro.graph.LocalGraph

/** LAMBDACC-MATLAB stand-in (Veldt et al.'s proof-of-concept, §C.1).
  *
  * The paper notes the reference implementation "uses an adjacency matrix to
  * represent the input graph; as such, it is unable to efficiently perform
  * sparse graph operations" and cannot scale beyond hundreds of vertices.
  * This class reproduces that scaling wall: a sequential Louvain whose every
  * data structure is a dense n×n matrix, so each best-move scan is Θ(n) and
  * each compression is Θ(n²) regardless of sparsity.
  */
object DenseLouvain {

  /** Maximum vertices before the dense representation is deemed infeasible —
    * mirrors the MATLAB implementation's practical limit.
    */
  val MaxFeasibleVertices = 20000

  /** BEST-MOVES passes per level. */
  private val MaxPasses = 100

  def cluster(g: LocalGraph, lambda: Double, seed: Long = 1): Array[Int] = {
    require(g.numVertices <= MaxFeasibleVertices,
      s"dense baseline infeasible beyond $MaxFeasibleVertices vertices (paper §C.1)")
    val n = g.numVertices
    // Dense adjacency — the deliberate bottleneck.
    val a = Array.ofDim[Double](n, n)
    var u = 0
    while (u < n) {
      var i = g.offsets(u)
      while (i < g.offsets(u + 1)) { a(u)(g.nbrs(i)) = g.wgts(i); i += 1 }
      u += 1
    }
    denseLevel(a, g.vertexWeight.clone(), lambda, new SplittableRandom(seed))
  }

  /** One full dense Louvain level + recursion on the contracted dense matrix. */
  private def denseLevel(a: Array[Array[Double]], k: Array[Double], lambda: Double,
                         rng: SplittableRandom): Array[Int] = {
    val n       = a.length
    val cluster = Array.tabulate(n)(identity)
    val kC      = k.clone()
    val size    = Array.fill(n)(1)
    var pass    = 0
    var movedAny = true
    var movedThisLevel = false
    while (movedAny && pass < MaxPasses) {
      movedAny = false
      pass += 1
      val perm = FrontierOps.all(n)
      FrontierOps.shuffle(perm, rng)
      perm.foreach { v =>
        val c = cluster(v)
        // Θ(n) dense scan: edge weight from v to every cluster.
        val wTo = new Array[Double](n)
        var x = 0
        while (x < n) { if (x != v) wTo(cluster(x)) += a(v)(x); x += 1 }
        val removeGain = Objective.moveDelta(k(v), lambda, wTo(c), kC(c), 0.0, 0.0)
        var bestDelta  = 0.0
        var bestT      = c
        var c2 = 0
        while (c2 < n) {
          if (c2 != c && size(c2) > 0) {
            val d = Objective.moveDelta(k(v), lambda, wTo(c), kC(c), wTo(c2), kC(c2))
            if (d > bestDelta + 1e-11) { bestDelta = d; bestT = c2 }
          } else if (c2 != c && size(c2) == 0 && removeGain > bestDelta + 1e-11 && size(c) > 1) {
            bestDelta = removeGain; bestT = c2
          }
          c2 += 1
        }
        if (bestT != c) {
          cluster(v) = bestT
          kC(c) -= k(v); kC(bestT) += k(v)
          size(c) -= 1; size(bestT) += 1
          movedAny = true; movedThisLevel = true
        }
      }
    }
    if (!movedThisLevel) return cluster
    // Dense contraction: Θ(n²).
    val dense = Objective.normalize(cluster)
    val nC    = dense.max + 1
    if (nC == n) return cluster
    val a2 = Array.ofDim[Double](nC, nC)
    val k2 = new Array[Double](nC)
    var u = 0
    while (u < n) {
      k2(dense(u)) += k(u)
      var v = 0
      while (v < n) {
        if (u != v && dense(u) != dense(v)) a2(dense(u))(dense(v)) += a(u)(v)
        v += 1
      }
      u += 1
    }
    val sub = denseLevel(a2, k2, lambda, rng)
    Array.tabulate(n)(v => sub(dense(v)))
  }
}
