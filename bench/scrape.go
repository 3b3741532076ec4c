package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// ignoredFamily is left out of every scrape. The daemon truncates each
// request to whole milliseconds before adding it to this counter, so a
// sub-millisecond warm solve adds 0 and the sum says nothing about
// latency.
const ignoredFamily = "pdxd_request_duration_milliseconds"

// scrape reads a daemon's /metrics exposition into a map from series
// (the metric name plus its label set, exactly as exposed) to value.
func scrape(ctx context.Context, hc *http.Client, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", base, err)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping %s: http %d", base, resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.HasPrefix(line, ignoredFamily) {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("scraping %s: malformed line %q", base, line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scraping %s: %w", base, err)
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scraping %s: %w", base, err)
	}
	return out, nil
}

// scrapeAll sums the scrapes of every shard.
func scrapeAll(ctx context.Context, hc *http.Client, urls []string) (map[string]float64, error) {
	sum := make(map[string]float64)
	for _, u := range urls {
		m, err := scrape(ctx, hc, u)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			sum[k] += v
		}
	}
	return sum, nil
}

// counters is the change of every series between two scrapes.
type counters map[string]float64

func delta(after, before map[string]float64) counters {
	out := make(counters, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// family sums the series of one metric family across its labels.
func (c counters) family(name string) float64 {
	var n float64
	for k, v := range c {
		if k == name || strings.HasPrefix(k, name+"{") {
			n += v
		}
	}
	return n
}

// ratio is num/(num+other), or 0 when both are 0.
func ratio(num, other float64) float64 {
	if num+other == 0 {
		return 0
	}
	return num / (num + other)
}
