// Package repro reproduces "Supporting Data Analytics Applications Which
// Utilize Cognitive Services" (Arun Iyengar, ICDCS 2017) as a Go library:
// a rich SDK for invoking cognitive and cloud services — with monitoring,
// ranking, retry/failover, caching, quotas, latency prediction, and
// sync/async invocation — plus a personalized knowledge base layered on
// top, and every substrate both need (NLU engines, search engines, a
// synthetic web, a relational engine, an RDF store with reasoners,
// key-value and cloud stores, codecs, and statistics).
//
// See README.md for a tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for the paper-claim-by-claim evaluation: its first table
// names the test or benchmark that checks each claim, in the package that
// owns the behaviour.
package repro
