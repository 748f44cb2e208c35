package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import org.scalatest.matchers.should.Matchers
import repro.TestGraphs

class TrianglesSpec extends AnyFunSuite with Matchers {

  test("single triangle: each edge in 1 triangle, each vertex in 1") {
    val g  = LocalGraph.fromUnweightedEdges(3, Seq((0, 1), (1, 2), (0, 2)))
    val tc = Triangles.count(g)
    tc.perVertex.sum / 3 shouldBe 1L
    tc.perVertex.toSeq shouldBe Seq(1L, 1L, 1L)
    tc.perEdge.foreach(_ shouldBe 1)
  }

  test("K4 has 4 triangles; each edge in 2, each vertex in 3") {
    val g  = LocalGraph.fromUnweightedEdges(4,
      for { u <- 0 until 4; v <- u + 1 until 4 } yield (u, v))
    val tc = Triangles.count(g)
    tc.perVertex.sum / 3 shouldBe 4L
    tc.perVertex.foreach(_ shouldBe 3L)
    tc.perEdge.foreach(_ shouldBe 2)
  }

  test("path has no triangles") {
    val g  = LocalGraph.fromUnweightedEdges(4, Seq((0, 1), (1, 2), (2, 3)))
    val tc = Triangles.count(g)
    tc.perVertex.sum / 3 shouldBe 0L
    tc.perEdge.foreach(_ shouldBe 0)
  }

  test("karate club has 45 triangles") {
    Triangles.count(GraphGen.karate).perVertex.sum / 3 shouldBe 45L
  }

  test("matches brute force on random graphs") {
    for (seed <- 1 to 6) {
      val n = 30
      val g = TestGraphs.randomUnweighted(n, 0.2, seed)
      val tc = Triangles.count(g)
      // brute force
      val adj = Array.fill(n)(new java.util.HashSet[Int]())
      g.undirectedEdges.foreach { case (u, v, _) => adj(u).add(v); adj(v).add(u) }
      var total = 0L
      val perV = new Array[Long](n)
      for (u <- 0 until n; v <- u + 1 until n if adj(u).contains(v);
           w <- v + 1 until n if adj(u).contains(w) && adj(v).contains(w)) {
        total += 1; perV(u) += 1; perV(v) += 1; perV(w) += 1
      }
      tc.perVertex.sum / 3 shouldBe total
      tc.perVertex.toSeq shouldBe perV.toSeq
      // every directed slot u→v holds |N(u) ∩ N(v)|
      for (u <- 0 until n; i <- g.offsets(u) until g.offsets(u + 1)) {
        val v = g.nbrs(i)
        tc.perEdge(i) shouldBe (0 until n).count(w => adj(u).contains(w) && adj(v).contains(w))
      }
    }
  }

  test("per-edge counts are symmetric across directions") {
    val g  = TestGraphs.randomUnweighted(25, 0.25, 9)
    val tc = Triangles.count(g)
    for (u <- 0 until g.numVertices; i <- g.offsets(u) until g.offsets(u + 1)) {
      val v = g.nbrs(i)
      // find reverse slot
      val j = (g.offsets(v) until g.offsets(v + 1)).find(g.nbrs(_) == u).get
      tc.perEdge(i) shouldBe tc.perEdge(j)
    }
  }

  test("single-thread and multi-thread counts agree") {
    val g = TestGraphs.randomUnweighted(200, 0.05, 4)
    val a = Triangles.count(g, threads = 1)
    val b = Triangles.count(g, threads = 8)
    a.perEdge.toSeq shouldBe b.perEdge.toSeq
    a.perVertex.toSeq shouldBe b.perVertex.toSeq
  }

  test("clustering coefficients: clique=1, star center=0") {
    val k4 = LocalGraph.fromUnweightedEdges(4,
      for { u <- 0 until 4; v <- u + 1 until 4 } yield (u, v))
    Triangles.clusteringCoefficients(k4, Triangles.count(k4)).foreach(_ shouldBe 1.0 +- 1e-12)
    val star = TestGraphs.star(5)
    Triangles.clusteringCoefficients(star, Triangles.count(star)).foreach(_ shouldBe 0.0 +- 1e-12)
  }

  test("union-find components on disconnected graph") {
    val uf = new UnionFind(6)
    uf.union(0, 1); uf.union(1, 2); uf.union(4, 5)
    val c = uf.components
    c(0) shouldBe c(1)
    c(1) shouldBe c(2)
    c(4) shouldBe c(5)
    c(3) should not be c(0)
    c(3) should not be c(4)
    c(0) should not be c(4)
  }

  test("union-find is idempotent and order-insensitive") {
    val uf1 = new UnionFind(5)
    uf1.union(0, 4); uf1.union(4, 2); uf1.union(0, 2)
    val uf2 = new UnionFind(5)
    uf2.union(2, 4); uf2.union(0, 2)
    uf1.components.toSeq shouldBe uf2.components.toSeq
  }
}
