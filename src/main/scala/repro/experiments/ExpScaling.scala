package repro.experiments

import repro.core._
import repro.graph.GraphGen

/** T6 — rMAT scalability (Figs 6/12): running time of PAR-CC / PAR-MOD over
  * rMAT graphs of the paper's four density regimes (m = 5n, 50n, n^1.5, n²),
  * at container scale.
  */
object ExpRmat {

  final case class Regime(name: String, edges: Int => Long)
  val regimes: Seq[Regime] = Seq(
    Regime("m=5n",    n => 5L * n),
    Regime("m=50n",   n => 50L * n),
    Regime("m=n^1.5", n => math.pow(n.toDouble, 1.5).toLong),
    Regime("m=n^2",   n => n.toLong * n / 4), // /4 keeps n² regime feasible at scale>=10
  )

  def table(scales: Seq[Int] = Seq(10, 12, 14, 16),
            lambdas: Seq[Double] = Seq(0.01, 0.85),
            maxEdges: Long = 4_000_000L): Table = {
    val rows = Seq.newBuilder[Seq[String]]
    for (reg <- regimes; scale <- scales) {
      val n = 1 << scale
      val m = reg.edges(n)
      if (m <= maxEdges) {
        val g = GraphGen.rmat(scale, m, seed = scale * 31 + 7)
        val opts = LouvainOptions(seed = 3)
        for (l <- lambdas) {
          // one untimed call per engine first, so that no row (the first one
          // above all) times JIT warm-up instead of scaling
          ParLouvain.cluster(g, l, opts)
          ParLouvain.clusterModularity(g, l, opts)
          val (_, tCc)  = Timing.time(ParLouvain.cluster(g, l, opts))
          val (_, tMod) = Timing.time(ParLouvain.clusterModularity(g, l, opts))
          rows += Seq(reg.name, n.toString, g.numEdges.toString, f"$l%.2f",
            Timing.fmt(tCc), Timing.fmt(tMod),
            f"${tCc / math.max(1, g.numEdges) * 1e6}%.3f")
        }
      }
    }
    Table("T6 (Fig 6/12): rMAT scalability of PAR-CC / PAR-MOD",
      Seq("regime", "n", "m", "lambda", "parcc_s", "parmod_s", "parcc_us_per_edge"),
      rows.result())
  }
}

/** T7 — thread scalability (Figs 7/13): self-relative speedups over 1..16
  * threads (the container's core count; the paper uses 30h/48h cores).
  */
object ExpThreads {

  def table(graphs: Seq[String] = BenchGraphs.tuningSet,
            lambdas: Seq[Double] = Seq(0.01, 0.85),
            threads: Seq[Int] = Seq(1, 2, 4, 8, 16),
            includeLargeRmat: Boolean = true): Table = {
    val rows = Seq.newBuilder[Seq[String]]
    val inputs = graphs.map(name => name -> BenchGraphs(name).graph) ++
      (if (includeLargeRmat) Seq("rmat18(3M)" -> BenchGraphs.rmatLarge) else Nil)
    for ((gName, g) <- inputs; l <- lambdas; alg <- Seq("PAR-CC", "PAR-MOD")) {
      // median of 3: async moves race, so the move trajectories (and the
      // work done) differ from run to run and single-shot ratios are noisy
      val times = threads.map { t =>
        Timing.median(3) {
          val opts = LouvainOptions(threads = t, seed = 5)
          if (alg == "PAR-CC") ParLouvain.cluster(g, l, opts)
          else ParLouvain.clusterModularity(g, l, opts)
        }
      }
      val t1 = times.head
      rows += (Seq(alg, gName, f"$l%.2f") ++
        times.map(Timing.fmt) ++ Seq(f"${t1 / times.last}%.2f"))
    }
    Table("T7 (Fig 7/13): thread scaling (seconds per thread count; last col = self-relative speedup at max threads)",
      Seq("alg", "graph", "lambda") ++ threads.map(t => s"t$t(s)") ++ Seq("speedup"),
      rows.result())
  }
}

/** T8 — memory overhead (Fig 8): retained bytes as a multiple of the input
  * CSR size, with refinement (all levels retained) and without (peak of two
  * adjacent levels), from the engines' exact array accounting.
  */
object ExpMemory {

  def table(graphs: Seq[String] = BenchGraphs.tuningSet,
            lambdas: Seq[Double] = Seq(0.01, 0.85)): Table = {
    val rows = Seq.newBuilder[Seq[String]]
    for (gName <- graphs; l <- lambdas; alg <- Seq("PAR-CC", "PAR-MOD")) {
      val g = BenchGraphs(gName).graph
      val res =
        if (alg == "PAR-CC") ParLouvain.cluster(g, l, LouvainOptions(seed = 5))
        else ParLouvain.clusterModularity(g, l, LouvainOptions(seed = 5))
      val in = g.sizeInBytes.toDouble
      rows += Seq(alg, gName, f"$l%.2f", (in / 1e6).formatted("%.1f"),
        res.numLevels.toString,
        f"${res.retainedBytesAllLevels / in}%.2f",
        f"${res.peakBytesNoRefine / in}%.2f")
    }
    Table("T8 (Fig 8): memory overhead multiple of input size",
      Seq("alg", "graph", "lambda", "input_MB", "levels", "x_with_refine", "x_no_refine"),
      rows.result())
  }
}
