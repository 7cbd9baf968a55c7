-- ==== create tables ====
-- DDL: drop z
DROP TABLE IF EXISTS z;

-- DDL: create z
CREATE TABLE z (rid BIGINT PRIMARY KEY, y1 DOUBLE, y2 DOUBLE, y3 DOUBLE);

-- DDL: drop y
DROP TABLE IF EXISTS y;

-- DDL: create y
CREATE TABLE y (rid BIGINT, v BIGINT, val DOUBLE, PRIMARY KEY (rid, v));

-- DDL: drop c
DROP TABLE IF EXISTS c;

-- DDL: create c
CREATE TABLE c (i BIGINT PRIMARY KEY, y1 DOUBLE, y2 DOUBLE, y3 DOUBLE);

-- DDL: drop r
DROP TABLE IF EXISTS r;

-- DDL: create r
CREATE TABLE r (i BIGINT PRIMARY KEY, y1 DOUBLE, y2 DOUBLE, y3 DOUBLE);

-- DDL: drop cr
DROP TABLE IF EXISTS cr;

-- DDL: create cr
CREATE TABLE cr (v BIGINT PRIMARY KEY, c1 DOUBLE, c2 DOUBLE, r1 DOUBLE, r2 DOUBLE);

-- DDL: drop dett
DROP TABLE IF EXISTS dett;

-- DDL: create dett
CREATE TABLE dett (detr1 DOUBLE, detr2 DOUBLE, sqrtdetr1 DOUBLE, sqrtdetr2 DOUBLE);

-- DDL: drop yd
DROP TABLE IF EXISTS yd;

-- DDL: create yd
CREATE TABLE yd (rid BIGINT PRIMARY KEY, d1 DOUBLE, d2 DOUBLE);

-- DDL: drop yx
DROP TABLE IF EXISTS yx;

-- DDL: create yx
CREATE TABLE yx (rid BIGINT PRIMARY KEY, p1 DOUBLE, p2 DOUBLE, sump DOUBLE, suminvd DOUBLE, x1 DOUBLE, x2 DOUBLE, llh DOUBLE);

-- DDL: drop w
DROP TABLE IF EXISTS w;

-- DDL: create w
CREATE TABLE w (w1 DOUBLE, w2 DOUBLE, llh DOUBLE);

-- DDL: drop gmm
DROP TABLE IF EXISTS gmm;

-- DDL: create gmm
CREATE TABLE gmm (n BIGINT, twopipdiv2 DOUBLE);

-- ==== post load (n = 1000) ====
-- seed GMM
INSERT INTO gmm VALUES (1000, 15.749609945722419);

-- seed CR skeleton
INSERT INTO cr VALUES (1, 0, 0, 0, 0), (2, 0, 0, 0, 0), (3, 0, 0, 0, 0);

-- seed DETS skeleton
INSERT INTO dett VALUES (0, 0, 0, 0);

-- ==== E step ====
-- E: |R_1| into DETS
UPDATE dett FROM r SET detr1 = (CASE WHEN r.y1 = 0 THEN 1 ELSE r.y1 END) * (CASE WHEN r.y2 = 0 THEN 1 ELSE r.y2 END) * (CASE WHEN r.y3 = 0 THEN 1 ELSE r.y3 END), sqrtdetr1 = detr1 ** 0.5 WHERE r.i = 1;

-- E: |R_2| into DETS
UPDATE dett FROM r SET detr2 = (CASE WHEN r.y1 = 0 THEN 1 ELSE r.y1 END) * (CASE WHEN r.y2 = 0 THEN 1 ELSE r.y2 END) * (CASE WHEN r.y3 = 0 THEN 1 ELSE r.y3 END), sqrtdetr2 = detr2 ** 0.5 WHERE r.i = 2;

-- E: transpose C1 into CR
UPDATE cr FROM c SET c1 = CASE WHEN cr.v = 1 THEN c.y1 WHEN cr.v = 2 THEN c.y2 WHEN cr.v = 3 THEN c.y3 END WHERE c.i = 1;

-- E: transpose C2 into CR
UPDATE cr FROM c SET c2 = CASE WHEN cr.v = 1 THEN c.y1 WHEN cr.v = 2 THEN c.y2 WHEN cr.v = 3 THEN c.y3 END WHERE c.i = 2;

-- E: transpose R1 into CR (zero-guarded)
UPDATE cr FROM r SET r1 = CASE WHEN cr.v = 1 THEN (CASE WHEN r.y1 = 0 THEN 1 ELSE r.y1 END) WHEN cr.v = 2 THEN (CASE WHEN r.y2 = 0 THEN 1 ELSE r.y2 END) WHEN cr.v = 3 THEN (CASE WHEN r.y3 = 0 THEN 1 ELSE r.y3 END) END WHERE r.i = 1;

-- E: transpose R2 into CR (zero-guarded)
UPDATE cr FROM r SET r2 = CASE WHEN cr.v = 1 THEN (CASE WHEN r.y1 = 0 THEN 1 ELSE r.y1 END) WHEN cr.v = 2 THEN (CASE WHEN r.y2 = 0 THEN 1 ELSE r.y2 END) WHEN cr.v = 3 THEN (CASE WHEN r.y3 = 0 THEN 1 ELSE r.y3 END) END WHERE r.i = 2;

-- refresh yd: drop
DROP TABLE IF EXISTS yd;

-- refresh yd: create
CREATE TABLE yd (rid BIGINT PRIMARY KEY, d1 DOUBLE, d2 DOUBLE);

-- E: per-cluster Mahalanobis distances (YD)
INSERT INTO yd SELECT rid, sum((y.val - cr.c1) ** 2 / cr.r1), sum((y.val - cr.c2) ** 2 / cr.r2) FROM y, cr WHERE y.v = cr.v GROUP BY rid;

-- refresh yx: drop
DROP TABLE IF EXISTS yx;

-- refresh yx: create
CREATE TABLE yx (rid BIGINT PRIMARY KEY, p1 DOUBLE, p2 DOUBLE, sump DOUBLE, suminvd DOUBLE, x1 DOUBLE, x2 DOUBLE, llh DOUBLE);

-- E: fused probabilities + responsibilities (YX)
INSERT INTO yx SELECT rid, w1 / (twopipdiv2 * sqrtdetr1) * exp(-0.5 * d1) AS p1, w2 / (twopipdiv2 * sqrtdetr2) * exp(-0.5 * d2) AS p2, p1 + p2 AS sump, 1 / (d1 + 1.0E-100) + 1 / (d2 + 1.0E-100) AS suminvd, CASE WHEN sump > 0 THEN p1 / sump ELSE (1 / (d1 + 1.0E-100)) / suminvd END AS x1, CASE WHEN sump > 0 THEN p2 / sump ELSE (1 / (d2 + 1.0E-100)) / suminvd END AS x2, CASE WHEN sump > 0 THEN ln(sump) END FROM yd, gmm, w, dett;

-- ==== M step ====
-- M: clear C
DELETE FROM c;

-- M: mean of cluster 1 (C)
INSERT INTO c SELECT 1, sum(z.y1 * x1) / sum(x1), sum(z.y2 * x1) / sum(x1), sum(z.y3 * x1) / sum(x1) FROM z, yx WHERE z.rid = yx.rid;

-- M: mean of cluster 2 (C)
INSERT INTO c SELECT 2, sum(z.y1 * x2) / sum(x2), sum(z.y2 * x2) / sum(x2), sum(z.y3 * x2) / sum(x2) FROM z, yx WHERE z.rid = yx.rid;

-- M: clear W
DELETE FROM w;

-- M: accumulate W' and llh
INSERT INTO w SELECT sum(x1), sum(x2), sum(llh) FROM yx;

-- M: W = W'/n
UPDATE w FROM gmm SET w1 = w1 / gmm.n, w2 = w2 / gmm.n;

-- M: clear R
DELETE FROM r;

-- M: covariance of cluster 1 (R)
INSERT INTO r SELECT 1, sum(x1 * (z.y1 - c.y1) ** 2) / sum(x1), sum(x1 * (z.y2 - c.y2) ** 2) / sum(x1), sum(x1 * (z.y3 - c.y3) ** 2) / sum(x1) FROM z, c, yx WHERE z.rid = yx.rid AND c.i = 1;

-- M: covariance of cluster 2 (R)
INSERT INTO r SELECT 2, sum(x2 * (z.y1 - c.y1) ** 2) / sum(x2), sum(x2 * (z.y2 - c.y2) ** 2) / sum(x2), sum(x2 * (z.y3 - c.y3) ** 2) / sum(x2) FROM z, c, yx WHERE z.rid = yx.rid AND c.i = 2;

-- ==== score ====
-- refresh x: drop
DROP TABLE IF EXISTS x;

-- refresh x: create
CREATE TABLE x (rid BIGINT, i BIGINT, x DOUBLE, PRIMARY KEY (rid, i));

-- score: pivot x1 into X
INSERT INTO x SELECT rid, 1, x1 FROM yx;

-- score: pivot x2 into X
INSERT INTO x SELECT rid, 2, x2 FROM yx;

-- refresh xmax: drop
DROP TABLE IF EXISTS xmax;

-- refresh xmax: create
CREATE TABLE xmax (rid BIGINT PRIMARY KEY, maxx DOUBLE);

-- score: per-point max responsibility (XMAX)
INSERT INTO xmax SELECT rid, max(x) FROM x GROUP BY rid;

-- refresh ys: drop
DROP TABLE IF EXISTS ys;

-- refresh ys: create
CREATE TABLE ys (rid BIGINT PRIMARY KEY, score BIGINT);

-- score: argmax cluster (YS)
INSERT INTO ys SELECT x.rid, min(x.i) FROM x, xmax WHERE x.rid = xmax.rid AND x.x = xmax.maxx GROUP BY x.rid;

-- ==== loglikelihood ====
SELECT llh FROM w;
