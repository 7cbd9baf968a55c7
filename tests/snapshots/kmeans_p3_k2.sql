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

-- DDL: drop cr
DROP TABLE IF EXISTS cr;

-- DDL: create cr
CREATE TABLE cr (v BIGINT PRIMARY KEY, c1 DOUBLE, c2 DOUBLE);

-- DDL: drop yd
DROP TABLE IF EXISTS yd;

-- DDL: create yd
CREATE TABLE yd (rid BIGINT PRIMARY KEY, d1 DOUBLE, d2 DOUBLE, mind DOUBLE);

-- DDL: drop yx
DROP TABLE IF EXISTS yx;

-- DDL: create yx
CREATE TABLE yx (rid BIGINT PRIMARY KEY, x1 DOUBLE, x2 DOUBLE);

-- DDL: drop ys
DROP TABLE IF EXISTS ys;

-- DDL: create ys
CREATE TABLE ys (rid BIGINT PRIMARY KEY, score BIGINT);

-- ==== post load (n = 1000) ====
-- seed CR skeleton
INSERT INTO cr VALUES (1, 0, 0), (2, 0, 0), (3, 0, 0);

-- ==== E step ====
-- E: transpose C1 into CR
UPDATE cr FROM c SET c1 = CASE WHEN cr.v = 1 THEN c.y1 WHEN cr.v = 2 THEN c.y2 WHEN cr.v = 3 THEN c.y3 END WHERE c.i = 1;

-- E: transpose C2 into CR
UPDATE cr FROM c SET c2 = CASE WHEN cr.v = 1 THEN c.y1 WHEN cr.v = 2 THEN c.y2 WHEN cr.v = 3 THEN c.y3 END WHERE c.i = 2;

-- refresh yd: drop
DROP TABLE IF EXISTS yd;

-- refresh yd: create
CREATE TABLE yd (rid BIGINT PRIMARY KEY, d1 DOUBLE, d2 DOUBLE, mind DOUBLE);

-- E: Euclidean distances (YD)
INSERT INTO yd SELECT rid, sum((y.val - cr.c1) ** 2) AS d1, sum((y.val - cr.c2) ** 2) AS d2, 0 FROM y, cr WHERE y.v = cr.v GROUP BY rid;

-- E: per-point min distance (YD.mind)
UPDATE yd SET mind = least(d1, d2);

-- refresh yx: drop
DROP TABLE IF EXISTS yx;

-- refresh yx: create
CREATE TABLE yx (rid BIGINT PRIMARY KEY, x1 DOUBLE, x2 DOUBLE);

-- E: hard assignment (YX)
INSERT INTO yx SELECT rid, CASE WHEN d1 = mind THEN 1.0 ELSE 0.0 END, CASE WHEN d2 = mind AND d1 > mind THEN 1.0 ELSE 0.0 END FROM yd;

-- ==== M step ====
-- refresh ctmp: drop
DROP TABLE IF EXISTS ctmp;

-- refresh ctmp: create
CREATE TABLE ctmp (i BIGINT PRIMARY KEY, x DOUBLE, y1 DOUBLE, y2 DOUBLE, y3 DOUBLE);

-- M: Σx and Σx·y of cluster 1 (CTMP)
INSERT INTO ctmp SELECT 1, sum(x1), sum(z.y1 * x1), sum(z.y2 * x1), sum(z.y3 * x1) FROM z, yx WHERE z.rid = yx.rid;

-- M: Σx and Σx·y of cluster 2 (CTMP)
INSERT INTO ctmp SELECT 2, sum(x2), sum(z.y1 * x2), sum(z.y2 * x2), sum(z.y3 * x2) FROM z, yx WHERE z.rid = yx.rid;

-- M: C = Σx·y / Σx (empty clusters keep their centroid)
UPDATE c FROM ctmp SET y1 = CASE WHEN ctmp.x > 0 THEN ctmp.y1 / ctmp.x ELSE c.y1 END, y2 = CASE WHEN ctmp.x > 0 THEN ctmp.y2 / ctmp.x ELSE c.y2 END, y3 = CASE WHEN ctmp.x > 0 THEN ctmp.y3 / ctmp.x ELSE c.y3 END WHERE c.i = ctmp.i;

-- ==== score ====
-- score: clear YS
DELETE FROM ys;

-- score: argmin cluster (YS)
INSERT INTO ys SELECT rid, 1 * x1 + 2 * x2 FROM yx;

-- ==== loglikelihood ====
SELECT sum(mind) FROM yd;
