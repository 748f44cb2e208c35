package repro.perfbench

import repro.core.{LouvainEngine, LouvainOptions, LouvainResult, Objective, ParLouvain, SeqLouvain}
import repro.graph.{GraphGen, LocalGraph}

/** One benchmark workload: the graph it generates from a seed and the public
  * entry point that clusters it.
  *
  * @param defaultSeed   GraphGen seed used when none is given (the BenchGraphs
  *                      seeds, so numbers line up with EXPERIMENTS.md)
  * @param engine        engine whose layers the traced replica calls
  * @param modularity    PAR-MOD / SEQ-MOD (k = degree, λ = γ/2W) instead of CC
  * @param resolution    λ for CC, γ for modularity
  * @param deterministic every call must yield the same labelling
  */
final case class Workload(
    name: String,
    defaultSeed: Long,
    engine: LouvainEngine,
    modularity: Boolean,
    resolution: Double,
    deterministic: Boolean,
    generate: Long => LocalGraph,
    generateSmoke: Long => LocalGraph,
) {

  /** The call a user makes: in-memory graph to flat clustering. */
  def cluster(g: LocalGraph, opts: LouvainOptions): LouvainResult = engine match {
    case ParLouvain if modularity => ParLouvain.clusterModularity(g, resolution, opts)
    case ParLouvain               => ParLouvain.cluster(g, resolution, opts)
    case SeqLouvain if modularity => SeqLouvain.clusterModularity(g, resolution, opts)
    case SeqLouvain               => SeqLouvain.cluster(g, resolution, opts)
    case other                    => throw new IllegalArgumentException(s"no entry point for $other")
  }

  /** The graph and λ the entry point hands to `LouvainDriver.run`. */
  def driverInput(g: LocalGraph): (LocalGraph, Double) =
    if (modularity) (g.withDegreeWeights, resolution / (2 * g.totalEdgeWeight))
    else (g, resolution)

  /** Objective the workload optimises: CC (unordered pairs) or RB modularity. */
  def objective(g: LocalGraph, labels: Array[Int]): Double =
    if (modularity) Objective.modularity(g, labels, resolution)
    else Objective.cc(g, labels, resolution)

  /** Worker threads the engine's layers actually use. */
  def effectiveThreads(opts: LouvainOptions): Int = engine.compressionThreads(opts)
}

object Workloads {

  val all: Seq[Workload] = Seq(
    Workload("rmat18-par-cc", defaultSeed = 99, engine = ParLouvain, modularity = false,
      resolution = 0.01, deterministic = false,
      generate = seed => GraphGen.rmat(scale = 18, numEdges = 3_000_000L, seed = seed),
      generateSmoke = _ => GraphGen.karate),
    Workload("friendster-par-mod", defaultSeed = 11, engine = ParLouvain, modularity = true,
      resolution = 1.0, deterministic = false,
      generate = seed => GraphGen.preset("friendster-lite", seed).graph,
      generateSmoke = seed => GraphGen.presetSmall("amazon-lite", seed).graph),
    Workload("twitter-seq-cc", defaultSeed = 11, engine = SeqLouvain, modularity = false,
      resolution = 0.01, deterministic = true,
      generate = seed => GraphGen.preset("twitter-lite", seed).graph,
      generateSmoke = seed => GraphGen.presetSmall("amazon-lite", seed).graph),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$name' (known: ${all.map(_.name).mkString(", ")})"))
}
