package repro.knn

import org.scalatest.funsuite.AnyFunSuite
import org.scalatest.matchers.should.Matchers
import repro.core.{LouvainOptions, ParLouvain}
import repro.eval.Metrics

class KnnGraphSpec extends AnyFunSuite with Matchers {

  test("gaussian mixture covers all classes with deterministic seed") {
    val ps = KnnGraph.gaussianMixture(n = 500, dim = 8, classes = 5, sigma = 0.2, seed = 1)
    ps.points.length shouldBe 500
    ps.labels.toSet shouldBe (0 until 5).toSet
    val ps2 = KnnGraph.gaussianMixture(n = 500, dim = 8, classes = 5, sigma = 0.2, seed = 1)
    ps.labels.toSeq shouldBe ps2.labels.toSeq
  }

  test("kNN graph has at most ~n*k edges and positive weights in (0,1]") {
    val ps = KnnGraph.gaussianMixture(300, 8, 4, 0.3, seed = 2)
    val g  = KnnGraph.cosineKnnGraph(ps, k = 10)
    g.numVertices shouldBe 300
    g.numEdges should be <= 300L * 10
    g.undirectedEdges.foreach { case (_, _, w) =>
      w should be > 0.0
      w should be <= 1.0 + 1e-9
    }
  }

  test("kNN edges overwhelmingly connect same-class points at low noise") {
    val ps = KnnGraph.gaussianMixture(400, 12, 4, 0.15, seed = 3)
    val g  = KnnGraph.cosineKnnGraph(ps, k = 10)
    val (same, diff) = g.undirectedEdges.partition { case (u, v, _) => ps.labels(u) == ps.labels(v) }
    same.size should be > 5 * diff.size
  }

  test("top-k selection: each vertex proposes at most k neighbors") {
    val ps = KnnGraph.gaussianMixture(100, 6, 3, 0.3, seed = 4)
    val k  = 7
    val g  = KnnGraph.cosineKnnGraph(ps, k)
    // degree can exceed k (symmetrization) but must be < n
    (0 until g.numVertices).foreach { v => g.degree(v) should be < 100 }
  }

  test("unweighted view keeps topology, unit weights") {
    val ps = KnnGraph.gaussianMixture(120, 6, 3, 0.3, seed = 5)
    val g  = KnnGraph.cosineKnnGraph(ps, 8)
    val u  = g.unweighted
    u.numEdges shouldBe g.numEdges
    u.undirectedEdges.foreach { case (_, _, w) => w shouldBe 1.0 }
  }

  test("clustering the weighted kNN graph recovers classes (paper C.2 shape)") {
    val ps = KnnGraph.gaussianMixture(600, 12, 6, 0.2, seed = 6)
    val g  = KnnGraph.cosineKnnGraph(ps, 20)
    // communities have ~100 members: the λ·pairs penalty demands a small λ
    val res = ParLouvain.cluster(g, 0.05, LouvainOptions(seed = 1))
    Metrics.ari(res.clusters, ps.labels) should be > 0.5
    Metrics.nmi(res.clusters, ps.labels) should be > 0.5
  }

  test("exact kNN is symmetric in the weight max-combine") {
    val ps = KnnGraph.gaussianMixture(80, 4, 2, 0.3, seed = 7)
    val g  = KnnGraph.cosineKnnGraph(ps, 5)
    // every stored edge weight equals cosine similarity of its endpoints
    val unit = ps.points.map { p =>
      val norm = math.sqrt(p.map(x => x * x).sum); p.map(_ / norm)
    }
    g.undirectedEdges.foreach { case (u, v, w) =>
      val dot = unit(u).zip(unit(v)).map { case (a, b) => a * b }.sum
      w shouldBe dot +- 1e-9
    }
  }
}
