package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
)

// The harness owns its copies of the six appendix queries (DESIGN §3): a
// change to internal/benchkit must not move the yardstick.
var queryText = map[string]string{
	"q1": `MATCH (person:Person)<-[:hasCreator]-(message:Comment|Post)
WHERE person.firstName = $firstName
RETURN message.creationDate, message.content`,
	"q2": `MATCH (person:Person)<-[:hasCreator]-(message:Comment|Post),
      (message)-[:replyOf*0..10]->(post:Post)
WHERE person.firstName = $firstName
RETURN message.creationDate, message.content, post.creationDate, post.content`,
	"q3": `MATCH (p1:Person)-[:knows]->(p2:Person),
      (p2)<-[:hasCreator]-(comment:Comment),
      (comment)-[:replyOf*1..10]->(post:Post),
      (post)-[:hasCreator]->(p1)
WHERE p1.firstName = $firstName
RETURN p1.firstName, p1.lastName, p2.firstName, p2.lastName, post.content`,
	"q4": `MATCH (person:Person)-[:isLocatedIn]->(city:City),
      (person)-[:hasInterest]->(tag:Tag),
      (person)-[:studyAt]->(uni:University),
      (person)<-[:hasMember|hasModerator]-(forum:Forum)
RETURN person.firstName, person.lastName, city.name, tag.name, uni.name, forum.title`,
	"q5": `MATCH (p1:Person)-[:knows]->(p2:Person),
      (p2)-[:knows]->(p3:Person),
      (p1)-[:knows]->(p3)
RETURN p1.firstName, p1.lastName, p2.firstName, p2.lastName, p3.firstName, p3.lastName`,
	"q6": `MATCH (p1:Person)-[:knows]->(p2:Person),
      (p1)-[:hasInterest]->(t1:Tag),
      (p2)-[:hasInterest]->(t1),
      (p2)-[:hasInterest]->(t2:Tag)
RETURN p1.firstName, p1.lastName, t2.name`,
}

// allClasses lists every request class of the benchmark: query x parameter
// selectivity. The per-class client metric names are derived from it.
var allClasses = []string{
	"q1_rare", "q1_medium", "q1_common",
	"q2_rare", "q2_medium", "q2_common",
	"q3_rare", "q3_medium", "q3_common",
	"q4", "q5", "q6",
}

var analyticClasses = []string{"q2_common", "q4", "q5", "q6"}

// workload is one traffic mix against one configuration of the system.
type workload struct {
	name    string
	why     string
	classes []string
	// perRound is how often each class appears in one client's request list
	// of one round. A round always holds the same class mix, so rounds are
	// comparable whatever order the seed puts them in.
	perRound    int
	clients     int
	resultCache bool
	cluster     bool
}

var workloads = []workload{
	{
		name:     "analytic",
		why:      "large intermediate results: join and expand dominate, plus a big JSON body for Q4",
		classes:  analyticClasses,
		perRound: 2, clients: 1,
	},
	{
		name:     "operational",
		why:      "selective Q1-Q3: big inputs, few result rows, so leaf scans and embedding construction dominate",
		classes:  []string{"q1_rare", "q1_medium", "q2_rare", "q2_medium", "q3_rare", "q3_medium"},
		perRound: 2, clients: 1,
	},
	{
		name:     "cached",
		why:      "nine keys that all hit the result cache: only server and session work, two clients to show what serialises",
		classes:  allClasses[:9],
		perRound: 100, clients: 2, resultCache: true,
	},
	{
		name:     "cluster_2w",
		why:      "the analytic requests over a coordinator and two TCP workers: the bill of cluster, wire and codec",
		classes:  analyticClasses,
		perRound: 2, clients: 1, cluster: true,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// request is one distinct HTTP request: a class bound to the dataset's
// first names.
type request struct {
	class string
	query string
	// firstName is empty for the analytical queries.
	firstName string
	body      []byte
}

func newRequest(class string, names map[string]string) (request, error) {
	q, sel, _ := strings.Cut(class, "_")
	text, ok := queryText[q]
	if !ok {
		return request{}, fmt.Errorf("unknown class %q", class)
	}
	r := request{class: class, query: text}
	payload := map[string]any{"query": text}
	if sel != "" {
		r.firstName, ok = names[sel]
		if !ok {
			return request{}, fmt.Errorf("class %q: no first name of selectivity %q", class, sel)
		}
		payload["params"] = map[string]any{"firstName": r.firstName}
	}
	body, err := json.Marshal(payload)
	if err != nil {
		return request{}, err
	}
	r.body = body
	return r, nil
}

func newRequests(classes []string, names map[string]string) ([]request, error) {
	out := make([]request, len(classes))
	for i, c := range classes {
		r, err := newRequest(c, names)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// roundOrder returns the request indexes of one client's round: every class
// perRound times, shuffled by rng.
func roundOrder(rng *rand.Rand, classes, perRound int) []int {
	order := make([]int, 0, classes*perRound)
	for c := 0; c < classes; c++ {
		for i := 0; i < perRound; i++ {
			order = append(order, c)
		}
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}
