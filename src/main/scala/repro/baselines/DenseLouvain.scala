package repro.baselines

import repro.core.{LouvainOptions, SeqLouvain}
import repro.graph.LocalGraph

/** LAMBDACC-MATLAB stand-in (Veldt et al.'s proof-of-concept, §C.1).
  *
  * The paper notes the reference implementation "uses an adjacency matrix to
  * represent the input graph; as such, it is unable to efficiently perform
  * sparse graph operations" and cannot scale beyond hundreds of vertices.
  * This class reproduces that scaling wall. The LambdaCC objective sums
  * w'_uv = w_uv − λ·k_u·k_v over intra-cluster pairs, so Louvain on the dense
  * matrix w' is SEQ-CC at λ = 0 on the complete graph carrying those weights:
  * each best-move scan is Θ(n) and each compression Θ(n²) regardless of
  * sparsity.
  */
object DenseLouvain {

  /** Maximum vertices before the dense representation is deemed infeasible —
    * mirrors the MATLAB implementation's practical limit.
    */
  val MaxFeasibleVertices = 20000

  def cluster(g: LocalGraph, lambda: Double): Array[Int] = {
    require(g.numVertices <= MaxFeasibleVertices,
      s"dense baseline infeasible beyond $MaxFeasibleVertices vertices (paper §C.1)")
    SeqLouvain.cluster(rescaled(g, lambda), 0.0,
      LouvainOptions(numIter = 100, refine = false, seed = 1)).clusters
  }

  /** The complete graph on `g`'s vertices: each pair u < v once, with weight
    * w_uv − λ·k_u·k_v. Its CC objective at λ = 0 equals `g`'s at `lambda`, up
    * to `g`'s self-loops, which are intra-cluster in every clustering.
    */
  private[baselines] def rescaled(g: LocalGraph, lambda: Double): LocalGraph = {
    val n     = g.numVertices
    val pairs = n * (n - 1) / 2
    val src   = new Array[Int](pairs); val dst = new Array[Int](pairs)
    val wgt   = new Array[Double](pairs)
    val k     = g.vertexWeight
    val row   = new Array[Double](n) // u's edge weights, filled and cleared per u
    var e = 0
    var u = 0
    while (u < n) {
      var i = g.offsets(u)
      while (i < g.offsets(u + 1)) { row(g.nbrs(i)) = g.wgts(i); i += 1 }
      var v = u + 1
      while (v < n) {
        src(e) = u; dst(e) = v; wgt(e) = row(v) - lambda * (k(u) * k(v))
        e += 1; v += 1
      }
      i = g.offsets(u)
      while (i < g.offsets(u + 1)) { row(g.nbrs(i)) = 0.0; i += 1 }
      u += 1
    }
    LocalGraph.fromEdgeArrays(n, src, dst, wgt)
  }
}
