package repro.knn

import java.util.SplittableRandom
import repro.graph.LocalGraph
import repro.util.Parallel

/** Weighted-graph construction from pointset data (paper §C.2).
  *
  * The paper builds k-NN graphs (ScaNN, k=50, cosine similarity) from the UCI
  * digits (1,797 pts, 10 classes) and letter (20,000 pts, 26 classes)
  * datasets and symmetrizes them. Offline substitution (DESIGN.md §3):
  * Gaussian-mixture pointsets with the same instance/class counts, and exact
  * brute-force cosine k-NN (a strict superset of ScaNN's approximation).
  */
object KnnGraph {

  final case class Pointset(points: Array[Array[Double]], labels: Array[Int])

  /** Gaussian mixture: `classes` unit-norm centers, per-point noise σ. */
  def gaussianMixture(n: Int, dim: Int, classes: Int, sigma: Double,
                      seed: Long = 1): Pointset = {
    val rng = new SplittableRandom(seed)
    val centers = Array.fill(classes) {
      val c = Array.fill(dim)(rng.nextGaussian())
      val norm = math.sqrt(c.map(x => x * x).sum)
      c.map(_ / norm)
    }
    val labels = Array.fill(n)(rng.nextInt(classes))
    val points = labels.map { l =>
      centers(l).map(x => x + rng.nextGaussian() * sigma)
    }
    Pointset(points, labels)
  }

  /** Symmetrized k-NN graph under cosine similarity; edge weight = max of the
    * two directed similarities, clamped to (0, 1]. Non-positive similarities
    * are dropped (they carry no attraction under the CC objective).
    */
  def cosineKnnGraph(ps: Pointset, k: Int): LocalGraph = {
    val n   = ps.points.length
    val dim = ps.points(0).length
    // L2-normalize once; cosine similarity becomes a dot product.
    val unit = ps.points.map { p =>
      val norm = math.sqrt(p.map(x => x * x).sum)
      if (norm == 0) p else p.map(_ / norm)
    }
    val nbrs = new Array[Array[(Int, Double)]](n)
    Parallel.forRange(n) { i =>
      val sims = new Array[Double](n)
      val pi = unit(i)
      var j = 0
      while (j < n) {
        if (j != i) {
          var s = 0.0; var d = 0
          val pj = unit(j)
          while (d < dim) { s += pi(d) * pj(d); d += 1 }
          sims(j) = s
        }
        j += 1
      }
      // top-k partial selection
      val idx = Array.tabulate(n)(identity).filter(_ != i).sortBy(-sims(_)).take(k)
      nbrs(i) = idx.map(j2 => (j2, sims(j2))).filter(_._2 > 0)
    }
    val edges = for {
      i <- 0 until n
      (j, s) <- nbrs(i)
    } yield (math.min(i, j), math.max(i, j), s)
    // max-combine duplicates (both directions may propose the same pair)
    val best = scala.collection.mutable.HashMap.empty[(Int, Int), Double]
    edges.foreach { case (a, b, s) =>
      val key = (a, b)
      if (s > best.getOrElse(key, Double.NegativeInfinity)) best(key) = s
    }
    LocalGraph.fromEdges(n, best.iterator.map { case ((a, b), s) => (a, b, s) }.toSeq)
  }
}
