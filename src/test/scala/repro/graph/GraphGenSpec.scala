package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import org.scalatest.matchers.should.Matchers
import repro.TestGraphs

class GraphGenSpec extends AnyFunSuite with Matchers {

  test("rMAT is deterministic in its seed") {
    val g1 = GraphGen.rmat(scale = 8, numEdges = 2000, seed = 5)
    val g2 = GraphGen.rmat(scale = 8, numEdges = 2000, seed = 5)
    g1.undirectedEdges shouldBe g2.undirectedEdges
  }

  test("rMAT edge count is close to requested after dedupe") {
    val g = GraphGen.rmat(scale = 12, numEdges = 10000, seed = 5)
    g.numEdges should be <= 10000L
    g.numEdges should be >= 8000L
  }

  test("rMAT skews edges toward low vertex ids (a=0.5 quadrant)") {
    val g = GraphGen.rmat(scale = 10, numEdges = 8000, seed = 9)
    val n = g.numVertices
    val lowHalfDeg = (0 until n / 2).map(g.degree).sum
    val highHalfDeg = (n / 2 until n).map(g.degree).sum
    (lowHalfDeg * 10) should be > 12 * highHalfDeg
  }

  test("sbm covers every vertex with a community") {
    val gt = GraphGen.sbm(n = 500, minSize = 5, maxSize = 40, dIn = 6, dOut = 2, seed = 3)
    gt.membership.length shouldBe 500
    gt.communities.map(_.length).sum shouldBe 500
    // membership and communities agree
    gt.communities.zipWithIndex.foreach { case (comm, _) =>
      val ids = comm.map(gt.membership(_)).toSet
      ids.size shouldBe 1
    }
  }

  test("sbm communities are denser inside than outside") {
    val gt = GraphGen.sbm(n = 2000, minSize = 20, maxSize = 60, dIn = 8, dOut = 2, seed = 3)
    val g  = gt.graph
    var intra = 0L; var inter = 0L
    g.undirectedEdges.foreach { case (u, v, _) =>
      if (gt.membership(u) == gt.membership(v)) intra += 1 else inter += 1
    }
    intra should be > inter
  }

  test("sbm communities are sorted by decreasing size") {
    val gt = GraphGen.sbm(n = 1000, minSize = 5, maxSize = 200, dIn = 6, dOut = 1, seed = 13)
    val sizes = gt.communities.map(_.length)
    sizes shouldBe sizes.sortBy(-(_: Int))
  }

  test("sbm hub overlay adds high-degree vertices") {
    val plain = GraphGen.sbm(n = 3000, minSize = 10, maxSize = 50, dIn = 5, dOut = 1, seed = 7)
    val hubby = GraphGen.sbm(n = 3000, minSize = 10, maxSize = 50, dIn = 5, dOut = 1, seed = 7,
                             hubs = 3, hubDegree = 500)
    def maxDegree(g: LocalGraph) = (0 until g.numVertices).map(g.degree).max
    maxDegree(hubby.graph) should be > maxDegree(plain.graph) + 200
  }

  test("presets exist for all six paper graphs") {
    // Just the two smallest here (others are bench-scale).
    val a = GraphGen.preset("amazon-lite")
    a.graph.numVertices shouldBe 40000
    a.graph.numEdges should be > 100000L
    val d = GraphGen.preset("dblp-lite")
    d.graph.numVertices shouldBe 40000
    an[IllegalArgumentException] should be thrownBy GraphGen.preset("nope")
  }

  test("karate has 34 vertices and 78 edges") {
    val g = GraphGen.karate
    g.numVertices shouldBe 34
    g.numEdges shouldBe 78L
  }

  test("star graph structure") {
    val g = TestGraphs.star(5, 0.5)
    g.numVertices shouldBe 6
    g.degree(0) shouldBe 5
    (1 to 5).foreach(g.degree(_) shouldBe 1)
    g.totalEdgeWeight shouldBe 2.5 +- 1e-12
  }

  /** Order-independent fingerprint of the edge set: hash of the sorted list. */
  private def edgeSetHash(g: LocalGraph): Long =
    g.undirectedEdges.sortBy(e => (e._1, e._2)).foldLeft(1125899906842597L) { case (h, (u, v, w)) =>
      ((h * 31 + u) * 31 + v) * 31 + java.lang.Double.doubleToLongBits(w)
    }

  test("generators reproduce their pinned edge sets") {
    // The benchmark and bench graphs depend on these edge sets; a change to
    // the CSR builder may reorder rows but must reproduce them exactly.
    val r = GraphGen.rmat(12, 40_000, seed = 7)
    r.numEdges shouldBe 34185L
    r.totalEdgeWeight shouldBe 34185.0
    edgeSetHash(r) shouldBe -7518208848257956699L
    val a = GraphGen.presetSmall("amazon-lite").graph
    a.numEdges shouldBe 6813L
    a.totalEdgeWeight shouldBe 6813.0
    edgeSetHash(a) shouldBe 5772713034880994937L
  }

  test("generators reproduce their pinned CSR arrays") {
    // Move ties are broken by adjacency order, so the row layout matters as
    // much as the edge set. Values recorded before the rMAT sampling and the
    // pair sort were rewritten.
    def csr(g: LocalGraph) = (java.util.Arrays.hashCode(g.offsets),
                              java.util.Arrays.hashCode(g.nbrs), java.util.Arrays.hashCode(g.wgts))
    csr(GraphGen.rmat(12, 40_000, seed = 7)) shouldBe ((-365779603, -92857023, -838139455))
    csr(GraphGen.presetSmall("amazon-lite").graph) shouldBe ((649555373, 675046535, 751643841))
    val hubby = GraphGen.sbm(n = 3000, minSize = 10, maxSize = 50, dIn = 5, dOut = 1, seed = 7,
                             hubs = 3, hubDegree = 500).graph
    csr(hubby) shouldBe ((13013596, 391685090, -721578239))
  }

  test("generator outputs are well formed") {
    Seq(GraphGen.rmat(12, 40_000, seed = 7), GraphGen.presetSmall("amazon-lite").graph,
        GraphGen.sbm(n = 3000, minSize = 10, maxSize = 50, dIn = 5, dOut = 1, seed = 7,
                     hubs = 3, hubDegree = 500).graph,
        GraphGen.karate, GraphGen.rmat(scale = 5, numEdges = 0, seed = 3)).foreach(TestGraphs.assertWellFormed)
  }

  test("rMAT quadrant cuts agree with nextDouble() < p") {
    // nextDouble() is (nextLong() >>> 11) * 2^-53, so the integer draw x falls
    // below the cut exactly when the double falls below p.
    val Unit53 = 1.0 / (1L << 53)
    for (p <- Seq(0.5, 0.5 + 0.1, 0.5 + 0.1 + 0.1)) {
      val cut = GraphGen.quadrantCut(p)
      for (x <- Seq(cut - 1, cut, cut + 1))
        withClue(s"p=$p x=$x: ") { (x < cut) shouldBe (x * Unit53 < p) }
    }
  }

  test("rMAT edge cases: two vertices, no edges") {
    val two = GraphGen.rmat(scale = 1, numEdges = 10, seed = 3)
    two.numVertices shouldBe 2
    two.undirectedEdges shouldBe Seq((0, 1, 1.0))
    val empty = GraphGen.rmat(scale = 5, numEdges = 0, seed = 3)
    empty.numVertices shouldBe 32
    empty.numEdges shouldBe 0L
    empty.offsets.forall(_ == 0) shouldBe true
  }

  test("rMAT rejects a scale or edge count it cannot represent") {
    an[IllegalArgumentException] should be thrownBy GraphGen.rmat(scale = 0, numEdges = 10)
    an[IllegalArgumentException] should be thrownBy GraphGen.rmat(scale = 31, numEdges = 10)
    an[IllegalArgumentException] should be thrownBy GraphGen.rmat(scale = 10, numEdges = -1)
    an[IllegalArgumentException] should be thrownBy GraphGen.rmat(scale = 10, numEdges = Int.MaxValue.toLong)
  }
}
