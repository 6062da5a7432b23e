"""Parallel, disk-cached simulation campaigns.

The campaign layer turns the simulator into sweep infrastructure: a
grid of :class:`~repro.campaign.points.CampaignPoint` cells fans out
across a process pool, each finished cell is memoized in a
content-addressed on-disk cache (keyed on the point *and* the
package's source fingerprint), and every cell reports success or
failure individually.

Quickstart::

    from repro.campaign.cache import ResultCache
    from repro.campaign.points import CampaignPoint
    from repro.campaign.runner import run_campaign

    points = [CampaignPoint("MC-DLA(B)", "VGG-E", batch=256)]
    report = run_campaign(points, jobs=4, cache=ResultCache(".cache"))
    print(report.result("MC-DLA(B)", "VGG-E", 256,
                        points[0].strategy).iteration_time)

``python -m repro campaign`` exposes the same engine on the command
line; the paper's evaluation matrix is a declarative grid over it, and
every study declares scenarios that lower onto it
(:mod:`repro.scenarios.runner`).  The package imports none of its
submodules, so a caller that needs only cell points
(:mod:`repro.campaign.points`) does not load the process pool.
"""
