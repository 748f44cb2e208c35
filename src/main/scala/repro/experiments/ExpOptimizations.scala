package repro.experiments

import repro.core._
import repro.graph.LocalGraph

/** T2/T3 — §4.1 tuning study (paper Figs 2 and 3).
  *
  * Baseline setting = synchronous, all vertices, no refinement (the natural
  * un-optimized parallelization). Each optimization is toggled alone, plus
  * "every optimization". We report, per (algorithm, graph, λ):
  *   - multiplicative slowdown of the un-optimized choice over the optimized
  *     one (sync/async, all/nbr-clusters, all/nbr-vertices, refine/no-refine,
  *     base/all-opt), as in Fig 2;
  *   - objectives of each setting, as in Fig 3.
  */
object ExpOptimizations {

  final case class Config(name: String, mode: MoveMode, frontier: Frontier, refine: Boolean)

  val base: Config   = Config("base(sync,all,noref)", MoveMode.Sync, Frontier.AllVertices, refine = false)
  val asyncC: Config = Config("async-only", MoveMode.Async, Frontier.AllVertices, refine = false)
  val nbrC: Config   = Config("nbrClusters-only", MoveMode.Sync, Frontier.NbrsOfClusters, refine = false)
  val nbrV: Config   = Config("nbrVertices-only", MoveMode.Sync, Frontier.NbrsOfVertices, refine = false)
  val refC: Config   = Config("refine-only", MoveMode.Sync, Frontier.AllVertices, refine = true)
  val allC: Config   = Config("all-opt", MoveMode.Async, Frontier.NbrsOfVertices, refine = true)
  val configs: Seq[Config] = Seq(base, asyncC, nbrC, nbrV, refC, allC)

  final case class Cell(seconds: Double, objective: Double)
  /** (algorithm, graph, λ, config.name) -> measurement */
  type Results = Map[(String, String, Double, String), Cell]

  def measure(): Results = {
    val out = Map.newBuilder[(String, String, Double, String), Cell]
    for (gName <- BenchGraphs.tuningSet; lambda <- BenchGraphs.tuningLambdas; cfg <- configs) {
      val g = BenchGraphs(gName).graph
      // PAR-CC
      val optsCc = LouvainOptions(mode = cfg.mode, frontier = cfg.frontier, refine = cfg.refine, seed = 7)
      val (resCc, tCc) = Timing.time(ParLouvain.cluster(g, lambda, optsCc))
      out += ("PAR-CC", gName, lambda, cfg.name) -> Cell(tCc, Objective.cc(g, resCc.clusters, lambda))
      // PAR-MOD (γ := λ, following the paper's use of the same two resolutions)
      val (resMod, tMod) = Timing.time(ParLouvain.clusterModularity(g, lambda, optsCc))
      out += ("PAR-MOD", gName, lambda, cfg.name) -> Cell(tMod, Objective.modularity(g, resMod.clusters, lambda))
    }
    out.result()
  }

  /** Fig-2-style slowdown table. */
  def slowdownTable(r: Results): Table = {
    val rows = for {
      alg <- Seq("PAR-CC", "PAR-MOD")
      ((g, l), _) <- r.keys.collect { case (a, g, l, _) if a == alg => ((g, l), ()) }
        .toSeq.distinct.sortBy { case ((g, l), _) => (g, l) }
    } yield {
      def t(c: Config) = r((alg, g, l, c.name)).seconds
      Seq(alg, g, f"$l%.2f",
        f"${t(base) / t(asyncC)}%.2f",
        f"${t(base) / t(nbrC)}%.2f",
        f"${t(base) / t(nbrV)}%.2f",
        f"${t(refC) / t(base)}%.2f",
        f"${t(base) / t(allC)}%.2f")
    }
    Table("T2 (Fig 2): multiplicative slowdowns of unoptimized settings",
      Seq("alg", "graph", "lambda", "sync/async", "all/nbrClust", "all/nbrVert",
          "refine/noref", "base/all-opt"),
      rows)
  }

  /** Fig-3-style objective table. */
  def objectiveTable(r: Results): Table = {
    val rows = for {
      alg <- Seq("PAR-CC", "PAR-MOD")
      ((g, l), _) <- r.keys.collect { case (a, g, l, _) if a == alg => ((g, l), ()) }
        .toSeq.distinct.sortBy { case ((g, l), _) => (g, l) }
    } yield {
      def o(c: Config) = r((alg, g, l, c.name)).objective
      Seq(alg, g, f"$l%.2f") ++ configs.map(c => f"${o(c)}%.4g")
    }
    Table("T3 (Fig 3): objective per optimization setting",
      Seq("alg", "graph", "lambda") ++ configs.map(_.name),
      rows)
  }
}
